// Sharded log: the paper's single redo stream generalized to N per-core
// streams, the design of parallel-logging main-memory databases ("Fast
// Failure Recovery for Main-Memory DBMSs on Multicores"): every entry gets
// a global sequence number from one lightly-contended ticket, hashes to a
// stream by sequence, and commits under epoch-based group commit — an
// update is acknowledged once every stream that wrote entries in its epoch
// has synced that epoch. N is a stream count, not a mode: at N = 1 this is
// exactly the paper's single stream, and it is the only log the store opens.
//
// Epochs are sealed sync rounds, not persisted state: a seal captures the
// highest assigned sequence, flushes every stream with pending frames
// (flushParts), and on success advances the durable frontier to the
// captured sequence. Sequences are therefore acknowledged strictly in
// order, and the on-disk invariant that recovery relies on is simple: an
// acknowledged sequence's epoch synced on every participating stream, so
// the merged streams contain every sequence up to the frontier with no gap.
// Conversely, the first missing sequence after a crash marks the end of the
// acknowledged prefix — everything beyond it belongs to epochs whose
// barrier never completed and is discarded by recovery
// (ReplayShardedPipelined).
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

// ShardName returns the file name of stream shard of a sharded log whose
// base name is base: the base itself for stream 0 — so a single-stream
// directory layout is also a one-shard layout — and base.<shard> above it.
func ShardName(base string, shard int) string {
	if shard == 0 {
		return base
	}
	return base + "." + strconv.Itoa(shard)
}

// ShardFiles lists the existing stream files of the sharded log rooted at
// base, in stream order: base itself (when present) followed by every
// base.<i>. Recovery replays whatever streams exist rather than whatever
// the current configuration says, so a database can change LogShards — in
// either direction — across restarts.
func ShardFiles(fs vfs.FS, base string) ([]string, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	type stream struct {
		name string
		idx  int
	}
	var streams []stream
	prefix := base + "."
	for _, n := range names {
		if n == base {
			streams = append(streams, stream{n, 0})
			continue
		}
		if len(n) > len(prefix) && n[:len(prefix)] == prefix {
			if i, err := strconv.Atoi(n[len(prefix):]); err == nil && i > 0 {
				streams = append(streams, stream{n, i})
			}
		}
	}
	for i := 1; i < len(streams); i++ {
		for j := i; j > 0 && streams[j].idx < streams[j-1].idx; j-- {
			streams[j], streams[j-1] = streams[j-1], streams[j]
		}
	}
	out := make([]string, len(streams))
	for i, s := range streams {
		out[i] = s.name
	}
	return out, nil
}

// ShardedOptions configures a Sharded log beyond the per-stream Options.
type ShardedOptions struct {
	Options
	// SequentialSync makes each epoch seal sync its streams one at a time
	// in stream order, on the leader, instead of in parallel. It exists for
	// the op-indexed crash sweeps, whose deterministic replay needs a
	// deterministic file-operation order; it costs exactly the
	// parallel-sync win.
	SequentialSync bool
}

// epochMetrics instruments the epoch barrier; nil-safe like metrics.
type epochMetrics struct {
	epochs  *obs.Counter   // seals completed
	entries *obs.Histogram // sequences acknowledged per epoch
	streams *obs.Histogram // streams synced per epoch
	syncNS  *obs.Histogram // latency of one seal (all stream syncs)
}

// Sharded is an open sharded redo log positioned for appending: N streams,
// each an ordinary Log, sharing one global sequence ticket and one
// epoch-based durability barrier.
type Sharded struct {
	fs    vfs.FS
	opts  ShardedOptions
	em    epochMetrics
	parts []int // scratch: streams participating in the current seal

	mu       sync.Mutex
	cond     *sync.Cond
	streams  []*Log
	nextSeq  uint64 // sequence the next append gets
	durable  uint64 // every sequence <= durable is durable on its stream
	epoch    uint64 // seals completed (the current epoch number)
	sealing  bool   // a seal is in flight; one at a time
	holdSeal bool   // blocks new seal leaders; see FinishMirror
	err      error  // sticky: a failed stream sync poisons the log
	closed   bool
	mirror   bool // a mirror window is open on every stream
}

// OpenSharded opens the sharded log rooted at base with the given stream
// count — stream 0 is the base file of the single-stream layout, so opening
// an existing single-stream log with shards > 1 upgrades it in place. A
// stream file that does not exist yet, or holds nothing, is created (and
// synced) holding only a head frame: head for the base, the base's own head
// for every other stream, so one log's streams share a head. nextSeq is one
// past the last recovered sequence, as reported by ReplayShardedPipelined.
func OpenSharded(fs vfs.FS, base string, shards int, nextSeq uint64, head []byte, opts ShardedOptions) (*Sharded, error) {
	if shards < 1 {
		return nil, fmt.Errorf("wal: shard count must be >= 1, got %d", shards)
	}
	if nextSeq == 0 {
		return nil, fmt.Errorf("wal: nextSeq must be ≥ 1")
	}
	s := &Sharded{
		fs:      fs,
		opts:    opts,
		nextSeq: nextSeq,
		durable: nextSeq - 1,
		streams: make([]*Log, 0, shards),
		parts:   make([]int, 0, shards),
		em: epochMetrics{
			epochs:  opts.Obs.Counter("wal_epochs"),
			entries: opts.Obs.Histogram("wal_epoch_entries"),
			streams: opts.Obs.Histogram("wal_epoch_streams"),
			syncNS:  opts.Obs.Histogram("wal_epoch_sync_ns"),
		},
	}
	s.cond = sync.NewCond(&s.mu)
	for i := 0; i < shards; i++ {
		name := ShardName(base, i)
		var l *Log
		size, err := fs.Stat(name)
		if err != nil || size == 0 && head != nil {
			// Absent, or left empty by a crash inside its creation.
			err = vfs.WriteFile(fs, name, HeadFrame(head))
		}
		if err == nil {
			l, err = Open(fs, name, nextSeq, opts.Options)
		}
		if err != nil {
			for _, open := range s.streams {
				open.Close()
			}
			return nil, err
		}
		head = l.head
		s.streams = append(s.streams, l)
	}
	return s, nil
}

// Head reports the head frame payload every stream held when opened, nil
// when any stream lacks it or holds another.
func (s *Sharded) Head() []byte {
	for _, l := range s.streams[1:] {
		if !bytes.Equal(l.head, s.streams[0].head) {
			return nil
		}
	}
	return s.streams[0].head
}

// Shards reports the stream count.
func (s *Sharded) Shards() int { return len(s.streams) }

// DurableSeq reports the durable frontier: every sequence at or below it
// has been acknowledged by a completed epoch barrier.
func (s *Sharded) DurableSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durable
}

// Size reports the total size of all streams in bytes, including unsynced
// frames.
func (s *Sharded) Size() int64 {
	var n int64
	for _, l := range s.streams {
		n += l.Size()
	}
	return n
}

// Append writes one entry and waits for its epoch barrier: on return the
// entry — and every entry sequenced before it — is durable.
func (s *Sharded) Append(payload []byte) (uint64, error) {
	seq, wait := s.AppendAsync(payload)
	return seq, wait()
}

// AppendAsync takes a global sequence from the ticket, frames the entry
// into its stream's pending buffer (stream = seq mod shards), and returns
// a wait function that blocks until the entry's epoch has synced on every
// participating stream. The enqueue does no I/O; concurrent appenders
// contend only on the ticket mutex for the duration of one memcpy.
func (s *Sharded) AppendAsync(payload []byte) (uint64, func() error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, func() error { return ErrClosed }
	}
	if s.err != nil {
		err := s.err
		s.mu.Unlock()
		return 0, func() error { return err }
	}
	seq := s.nextSeq
	s.nextSeq++
	s.streams[seq%uint64(len(s.streams))].enqueueSeq(seq, payload)
	s.mu.Unlock()
	return seq, func() error { return s.waitDurable(seq) }
}

// waitDurable blocks until seq is at or below the durable frontier. If no
// seal is in flight it leads one; otherwise it waits for the current
// leader and, if that epoch did not cover seq, leads the next. Concurrent
// waiters therefore share epoch barriers — the group commit, now spanning
// streams.
func (s *Sharded) waitDurable(seq uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.err != nil {
			return s.err
		}
		if s.durable >= seq {
			return nil
		}
		if !s.sealing && !s.holdSeal {
			s.sealing = true
			err := s.sealLocked()
			s.sealing = false
			s.cond.Broadcast()
			if err != nil {
				return err
			}
			continue
		}
		s.cond.Wait()
	}
}

// sealLocked runs one epoch barrier: capture the highest assigned
// sequence, flush every stream with pending frames (flushParts), and on
// success advance the durable frontier to the captured sequence. Called
// with s.mu held (s.sealing set); releases it around the I/O. Entries
// enqueued after the capture may ride along in a stream's flush — they
// become durable early, and the frontier catches up to them on the next
// seal.
func (s *Sharded) sealLocked() error {
	hi := s.nextSeq - 1
	was := s.durable
	s.epoch++
	s.parts = s.parts[:0]
	for i, l := range s.streams {
		if l.hasPending() {
			s.parts = append(s.parts, i)
		}
	}
	if len(s.parts) == 0 {
		// Everything up to hi was flushed by an earlier, wider seal (or
		// a stream-level Flush); nothing to sync.
		s.durable = max(s.durable, hi)
		return nil
	}
	s.mu.Unlock()
	start := time.Now()
	err := s.flushParts()
	dur := time.Since(start)
	s.mu.Lock()
	if err != nil {
		if s.err == nil {
			s.err = err
		}
		return s.err
	}
	s.durable = max(s.durable, hi)
	s.em.epochs.Inc()
	s.em.entries.Observe(int64(s.durable - was))
	s.em.streams.Observe(int64(len(s.parts)))
	s.em.syncNS.ObserveDuration(dur)
	if s.opts.Tracer != nil {
		s.opts.Tracer.Emit(obs.Event{Name: "log.epoch", Time: start, Dur: dur, Attrs: []obs.Attr{
			obs.A("epoch", s.epoch), obs.A("entries", s.durable-was), obs.A("streams", len(s.parts)),
		}})
	}
	return nil
}

// flushParts flushes the current seal's participating streams and reports
// the first failure in stream order. Called by the sealing leader without
// s.mu. Several streams flush concurrently — the leader takes the first
// itself, a goroutine each of the rest — so their syncs overlap. One
// participant (every seal at N = 1) flushes inline: a hop to another
// goroutine and back buys no overlap and costs two switches per commit.
// SequentialSync flushes inline too, in stream order.
func (s *Sharded) flushParts() error {
	if len(s.parts) == 1 || s.opts.SequentialSync {
		var err error
		for _, i := range s.parts {
			if e := s.streams[i].Flush(); e != nil && err == nil {
				err = e
			}
		}
		return err
	}
	errs := make([]error, len(s.parts))
	var wg sync.WaitGroup
	for k, i := range s.parts[1:] {
		wg.Add(1)
		go func(k, i int) {
			defer wg.Done()
			errs[k] = s.streams[i].Flush()
		}(k+1, i)
	}
	errs[0] = s.streams[s.parts[0]].Flush()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Flush makes every enqueued entry durable before returning: it waits out
// the barrier for the highest assigned sequence, sealing an epoch that
// covers everything — the epoch boundary a checkpoint cuts at. On a closed
// log it reports what Close, the last seal, left: a committer that has
// released the update lock may reach here after the store's Close.
func (s *Sharded) Flush() error {
	s.mu.Lock()
	hi := s.nextSeq - 1
	s.mu.Unlock()
	return s.waitDurable(hi)
}

// MirrorActive reports whether a mirror window is open.
func (s *Sharded) MirrorActive() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mirror
}

// BeginMirror opens a mirror window on every stream. As for Log, the
// caller must have quiesced appends and flushed the log.
func (s *Sharded) BeginMirror() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if s.err != nil {
		return s.err
	}
	if s.mirror {
		return errors.New("wal: mirror window already open")
	}
	for s.sealing {
		s.cond.Wait()
	}
	for i, l := range s.streams {
		if err := l.BeginMirror(); err != nil {
			for _, m := range s.streams[:i] {
				m.AbortMirror()
			}
			return err
		}
	}
	s.mirror = true
	return nil
}

// AttachMirrorFiles hands the window the new version's stream files,
// created and synced by the checkpoint protocol, one per stream in stream
// order. From each stream's attach on, its flushes dual-write both files.
func (s *Sharded) AttachMirrorFiles(files []vfs.File) error {
	if len(files) != len(s.streams) {
		return fmt.Errorf("wal: AttachMirrorFiles got %d files for %d streams", len(files), len(s.streams))
	}
	for i, l := range s.streams {
		if err := l.AttachMirrorFile(files[i]); err != nil {
			return err
		}
	}
	return nil
}

// SyncMirror drains every stream's mirror backlog: when it returns nil,
// each stream's new file durably holds every acknowledged entry of the
// window, and the per-stream dual-write rule keeps that invariant for
// every later acknowledgement — so the version flip is safe at any moment
// after this, exactly as for the single-stream window.
func (s *Sharded) SyncMirror() error {
	for _, l := range s.streams {
		if err := l.SyncMirror(); err != nil {
			return err
		}
	}
	return nil
}

// FinishMirror ends the window by retargeting every stream to its new
// file, renaming the log to newBase (stream i appends to
// ShardName(newBase, i) from now on). New seals are held off while each
// stream's brief retarget critical section runs; the durable frontier and
// sequence ticket carry over unchanged. It reports the total entries
// appended during the window across streams.
func (s *Sharded) FinishMirror(newBase string) (int64, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return 0, ErrClosed
	}
	s.holdSeal = true
	for s.sealing {
		s.cond.Wait()
	}
	s.mu.Unlock()

	var entries int64
	var firstErr error
	for i, l := range s.streams {
		n, err := l.FinishMirror(ShardName(newBase, i))
		if err != nil && firstErr == nil {
			firstErr = err
		}
		entries += n
	}

	s.mu.Lock()
	s.holdSeal = false
	if firstErr != nil && s.err == nil {
		s.err = firstErr
	}
	s.mirror = false
	s.cond.Broadcast()
	s.mu.Unlock()
	return entries, firstErr
}

// AbortMirror ends the window without switching files on any stream. Safe
// to call in any state.
func (s *Sharded) AbortMirror() {
	for _, l := range s.streams {
		l.AbortMirror()
	}
	s.mu.Lock()
	s.mirror = false
	s.mu.Unlock()
}

// Close flushes and closes every stream. It is the last seal: committers
// still waiting on the barrier are acknowledged by the streams' closing
// flushes (or fail with their error) instead of sealing against closed
// streams.
func (s *Sharded) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	for s.sealing {
		s.cond.Wait()
	}
	s.closed, s.sealing = true, true
	hi := s.nextSeq - 1
	s.mu.Unlock()
	var err error
	for _, l := range s.streams {
		if cerr := l.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	s.mu.Lock()
	s.sealing = false
	if err != nil && s.err == nil {
		s.err = err
	} else if err == nil && hi > s.durable {
		s.durable = hi
	}
	s.cond.Broadcast()
	s.mu.Unlock()
	return err
}
