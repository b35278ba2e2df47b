// Package wal implements the paper's redo log: an append-only file of
// update records, one per single-shot transaction, whose disk write is the
// commit point of the design ("The commit point is the disk write: if we
// crash before the write occurs on the disk, the update is not visible
// after a restart; if we crash after the write completes, the entire update
// will be completed after a restart").
//
// Each entry is framed as
//
//	uvarint sequence | uvarint length | payload | crc32c(sequence, length, payload)
//
// A file may begin with a head frame: the same framing at the reserved
// sequence 0, synced with the file's creation. Its payload is opaque here —
// the store keeps there the pickle.Table its entries are pickled against —
// and ReadHead and Replay hand it back, never as an entry.
//
// The leading length plays the role the paper gives it — "this detection
// comes from including the log entry's length on the first page of the
// entry" — and the trailing CRC substitutes for the 1987 disk hardware's
// property that a partially written page reports a read error: a torn tail
// entry fails its checksum and is discarded by recovery. A damaged entry in
// the *middle* of the log can optionally be skipped (the paper's §4:
// "recovery from a hard error in the log could consist of ignoring just the
// damaged log entry"), because the entry length lets the reader hop over an
// unreadable payload.
//
// Group commit — "arranging to record multiple commit records in a single
// log entry (in the presence of concurrent update requests)", which the
// paper identifies as the only scheme that can beat one-write-per-update —
// needs no option: concurrent Appends share a single Sync.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSpareFlushBuf bounds the flush buffer kept across group commits.
const maxSpareFlushBuf = 1 << 20

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// Options configures a Log.
type Options struct {
	// NoSync skips the Sync on append. Only for tests that model a
	// system without a commit point; the reliability experiments show
	// what it costs.
	NoSync bool
	// Obs, when non-nil, receives the log's metrics: wal_appends,
	// wal_append_bytes (entry frames), wal_head_bytes, wal_flushes,
	// wal_flush_ns, wal_flush_bytes and wal_group_entries.
	Obs *obs.Registry
	// Tracer, when non-nil, receives a "log.flush" event per disk write.
	Tracer obs.Tracer
}

// metrics holds the log's instrumentation; every field tolerates nil, so
// an unwired log pays only nil checks.
type metrics struct {
	appends      *obs.Counter   // entries enqueued
	appendBytes  *obs.Counter   // framed bytes enqueued
	headBytes    *obs.Counter   // head frames of the files appended to
	flushes      *obs.Counter   // disk writes (write+sync pairs)
	flushNS      *obs.Histogram // latency of one write+sync
	flushBytes   *obs.Histogram // bytes per disk write
	groupEntries *obs.Histogram // entries sharing one disk write
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		appends:      reg.Counter("wal_appends"),
		appendBytes:  reg.Counter("wal_append_bytes"),
		headBytes:    reg.Counter("wal_head_bytes"),
		flushes:      reg.Counter("wal_flushes"),
		flushNS:      reg.Histogram("wal_flush_ns"),
		flushBytes:   reg.Histogram("wal_flush_bytes"),
		groupEntries: reg.Histogram("wal_group_entries"),
	}
}

// Log is an open redo log positioned for appending.
type Log struct {
	fs   vfs.FS
	name string
	opts Options
	m    metrics

	mu           sync.Mutex
	cond         *sync.Cond
	f            vfs.File
	head         []byte // the payload of f's head frame at open, nil without one
	nextSeq      uint64
	size         int64
	pending      []byte // frames appended but not yet written+synced (group commit)
	spare        []byte // the previous flush's buffer, recycled to rebuild pending
	pendingCount int    // entries in pending
	pendingHi    uint64 // highest seq in pending
	committed    uint64 // highest seq known durable
	syncing      bool
	holdFlush    bool  // blocks new flush leaders; see FinishMirror
	err          error // sticky: a failed log write poisons the log
	closed       bool
	mirror       mirrorState
}

// mirrorState is the mirror window a non-blocking checkpoint opens: every
// frame appended while the window is open still commits durably to the
// current (old) file — which remains the commit point — and is additionally
// buffered for the checkpoint's new log file. Once the new file is attached,
// each flush writes and syncs BOTH files before acknowledging, so at every
// instant after a successful SyncMirror the new file durably holds every
// acknowledged entry of the window; the version flip is then safe at any
// point and FinishMirror retargets the log with a lock-only critical
// section.
type mirrorState struct {
	active   bool
	f        vfs.File // nil until AttachMirrorFile
	headLen  int64    // f's head frame, written ahead of the window's frames
	buf      []byte   // frames not yet written to f
	inflight int64    // bytes taken by the flush currently writing f
	written  int64    // bytes durably written to f
	entries  int64    // frames appended during the window
}

// Create creates (or truncates) the named log file and returns an empty Log
// whose first entry will have sequence firstSeq (≥ 1; sequence 0 is
// reserved as "nothing committed", and for the head frame).
func Create(fs vfs.FS, name string, firstSeq uint64, opts Options) (*Log, error) {
	if firstSeq == 0 {
		return nil, fmt.Errorf("wal: firstSeq must be ≥ 1")
	}
	f, err := fs.Create(name)
	if err != nil {
		return nil, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, err
	}
	return newLog(fs, name, f, firstSeq, opts)
}

// HeadFrame is the head frame of a log file whose head payload is head: the
// file's first bytes, nil when head is.
func HeadFrame(head []byte) []byte {
	if head == nil {
		return nil
	}
	return frame(0, head)
}

// Open opens an existing log for appending. nextSeq must be one past the
// sequence of the last entry (as reported by Replay during recovery).
func Open(fs vfs.FS, name string, nextSeq uint64, opts Options) (*Log, error) {
	if nextSeq == 0 {
		return nil, fmt.Errorf("wal: nextSeq must be ≥ 1")
	}
	f, err := fs.Append(name)
	if err != nil {
		return nil, err
	}
	return newLog(fs, name, f, nextSeq, opts)
}

// newLog wraps f as a Log appending from nextSeq.
func newLog(fs vfs.FS, name string, f vfs.File, nextSeq uint64, opts Options) (*Log, error) {
	size, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	head, n := readHead(f, size)
	l := &Log{fs: fs, name: name, opts: opts, m: newMetrics(opts.Obs), f: f, head: head, nextSeq: nextSeq, size: size - n}
	l.m.headBytes.Add(uint64(n))
	l.cond = sync.NewCond(&l.mu)
	l.committed = nextSeq - 1
	return l, nil
}

// ReadHead returns the payload of the named log file's head frame, nil when
// it has none; it fails where a Replay skipping damaged entries fails before
// the first intact one.
func ReadHead(fs vfs.FS, name string) ([]byte, error) {
	res, err := Replay(fs, name, 1, ReplayOptions{Monotonic: true, SkipDamaged: true}, func(uint64, []byte) error { return errStopped })
	if err == errStopped {
		err = nil
	}
	return res.Head, err
}

// readHead returns the payload and frame length of f's intact head frame,
// or nil and 0.
func readHead(f vfs.File, size int64) ([]byte, int64) {
	if seq, payload, n, err := readEntry(f, 0, size); err == nil && seq == 0 {
		return payload, n
	}
	return nil, 0
}

// Size reports the bytes of the log's entries, including unsynced frames;
// the head frame is not counted.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.size
}

// appendFrame encodes one log entry in place at the end of buf, so the
// append path frames straight into the shared pending buffer with no
// per-entry allocation.
func appendFrame(buf []byte, seq uint64, payload []byte) []byte {
	base := len(buf)
	buf = binary.AppendUvarint(buf, seq)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	sum := crc32.Checksum(buf[base:], crcTable)
	return binary.LittleEndian.AppendUint32(buf, sum)
}

// frame encodes one log entry into a fresh slice.
func frame(seq uint64, payload []byte) []byte {
	return appendFrame(make([]byte, 0, 2*binary.MaxVarintLen64+len(payload)+4), seq, payload)
}

// Append writes one entry and makes it durable; when it returns, the entry
// is the committed record of an update. It reports the entry's sequence
// number. Concurrent Appends share disk writes (see waitDurable).
func (l *Log) Append(payload []byte) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	seq := l.nextSeq
	l.appendSeqLocked(seq, payload)
	return seq, l.waitDurable(seq)
}

// enqueueSeq frames one entry under a caller-assigned sequence number, at
// least the log's next one, without waiting for it: the log is one stream
// of a Sharded log, whose global ticket hands out sequences across streams
// (strictly increasing within a stream, dense only at one stream) and whose
// epoch barrier is the wait. A closed or poisoned stream drops the frame;
// the epoch seal's Flush surfaces the same error to every waiter, so
// acked ⇒ durable still holds.
func (l *Log) enqueueSeq(seq uint64, payload []byte) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.err != nil || seq < l.nextSeq {
		return
	}
	l.appendSeqLocked(seq, payload)
}

// appendSeqLocked frames one entry at sequence seq into the pending buffer.
// Called with l.mu held on an open, healthy log; seq must be >= l.nextSeq.
func (l *Log) appendSeqLocked(seq uint64, payload []byte) {
	l.nextSeq = seq + 1
	was := len(l.pending)
	l.pending = appendFrame(l.pending, seq, payload)
	frameLen := len(l.pending) - was
	if l.mirror.active {
		l.mirror.buf = append(l.mirror.buf, l.pending[was:]...)
		l.mirror.entries++
	}
	l.pendingCount++
	l.pendingHi = seq
	l.size += int64(frameLen)
	l.m.appends.Inc()
	l.m.appendBytes.Add(uint64(frameLen))
}

// waitDurable blocks until seq is durable. Called with l.mu held. If no
// flush is in progress it leads one, writing every pending frame with a
// single disk write and sync; otherwise it waits for the current leader
// and, if that flush did not cover seq, leads the next. Concurrent waiters
// therefore share disk writes: this is the group commit the paper
// describes, arising naturally whenever callers overlap. Callers that
// serialize get exactly one disk write per entry.
func (l *Log) waitDurable(seq uint64) error {
	for {
		if l.err != nil {
			return l.err
		}
		if l.committed >= seq {
			return nil
		}
		if !l.syncing && !l.holdFlush && len(l.pending) > 0 {
			if err := l.flushLocked(); err != nil {
				return err
			}
			continue
		}
		// Either a flush is in flight (it holds our frame, or the
		// next leader will) or our frame is in a flush that is about
		// to complete; both broadcast.
		l.cond.Wait()
	}
}

// flushLocked writes and syncs all pending frames. Called with l.mu held
// and no flush in flight; marks itself the flush in flight (l.syncing),
// releases l.mu around the I/O, and wakes every waiter when done. While a mirror file is attached, the mirrored
// frames are written and synced to it too, and no entry is acknowledged
// (committed advanced) until both files are durable — the invariant the
// non-blocking checkpoint's version flip depends on.
func (l *Log) flushLocked() error {
	l.syncing = true
	defer func() {
		l.syncing = false
		l.cond.Broadcast()
	}()
	buf := l.pending
	hi := l.pendingHi
	entries := l.pendingCount
	// Swap in the previous flush's buffer so appends arriving during the
	// I/O frame into recycled storage instead of regrowing from nil. Only
	// one flush runs at a time (l.syncing), so buf is ours until we hand
	// it back below.
	l.pending = l.spare[:0]
	l.spare = nil
	l.pendingCount = 0
	var mbuf []byte
	var mf vfs.File
	if l.mirror.f != nil && len(l.mirror.buf) > 0 {
		mf = l.mirror.f
		mbuf = l.mirror.buf
		l.mirror.buf = nil
		l.mirror.inflight = int64(len(mbuf))
	}
	if len(buf) == 0 && mbuf == nil {
		l.spare = buf
		return nil
	}
	l.mu.Unlock()
	start := time.Now()
	var werr, serr error
	if len(buf) > 0 {
		_, werr = l.f.Write(buf)
		if werr == nil && !l.opts.NoSync {
			serr = l.f.Sync()
		}
	}
	var merr error
	if werr == nil && serr == nil && mf != nil {
		if _, merr = mf.Write(mbuf); merr == nil && !l.opts.NoSync {
			merr = mf.Sync()
		}
	}
	dur := time.Since(start)
	l.m.flushes.Inc()
	l.m.flushNS.ObserveDuration(dur)
	l.m.flushBytes.Observe(int64(len(buf)))
	l.m.groupEntries.Observe(int64(entries))
	if l.opts.Tracer != nil {
		ferr := werr
		if ferr == nil {
			ferr = serr
		}
		if ferr == nil {
			ferr = merr
		}
		l.opts.Tracer.Emit(obs.Event{Name: "log.flush", Time: start, Dur: dur, Err: ferr, Attrs: []obs.Attr{
			obs.A("bytes", len(buf)), obs.A("entries", entries), obs.A("hi_seq", hi),
		}})
	}
	l.mu.Lock()
	// Hand the written buffer back for the next flush cycle, unless it
	// ballooned (a giant group) — holding that much memory between
	// flushes is not worth the saved allocation.
	if l.spare == nil && cap(buf) <= maxSpareFlushBuf {
		l.spare = buf[:0]
	}
	if mf != nil {
		l.mirror.inflight = 0
		if merr == nil {
			l.mirror.written += int64(len(mbuf))
		}
	}
	if werr == nil && serr == nil && merr == nil {
		if len(buf) > 0 && hi > l.committed {
			l.committed = hi
		}
		return nil
	}
	err := werr
	if err == nil {
		err = serr
	}
	if err == nil {
		err = merr
	}
	l.err = fmt.Errorf("wal: append failed, log poisoned: %w", err)
	return l.err
}

// Flush makes every enqueued entry durable before returning, waiting out
// any in-flight flush. Administrative operations (audit-trail reads) use it
// to bring the file in line with the in-memory state.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return l.err
	}
	if len(l.pending) == 0 {
		return nil
	}
	return l.flushLocked()
}

// hasPending reports whether frames are enqueued that may not be durable
// yet: still pending, or taken by a flush that is in flight — a stream is
// also flushed outside seals (SyncMirror, Close), and frames such a flush
// carries are not durable until it returns. The Sharded epoch seal uses it
// to pick the streams it must Flush (which waits the in-flight one out)
// before acknowledging.
func (l *Log) hasPending() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending) > 0 || l.syncing
}

// BeginMirror opens the mirror window. The caller must have quiesced
// appends (the store holds the update lock) and flushed the log: every
// frame appended from here on is buffered for the checkpoint's new log
// file in addition to committing durably to the current one.
func (l *Log) BeginMirror() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.err != nil {
		return l.err
	}
	if l.mirror.active {
		return errors.New("wal: mirror window already open")
	}
	if len(l.pending) > 0 || l.syncing {
		return errors.New("wal: BeginMirror requires a flushed log")
	}
	l.mirror = mirrorState{active: true}
	return nil
}

// AttachMirrorFile hands the mirror window the new log file (created and
// synced by the checkpoint protocol). Until SyncMirror returns, frames
// buffered since BeginMirror may still be waiting; afterwards every flush
// keeps the file durably caught up before acknowledging.
func (l *Log) AttachMirrorFile(f vfs.File) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.mirror.active {
		return errors.New("wal: AttachMirrorFile without BeginMirror")
	}
	if l.mirror.f != nil {
		return errors.New("wal: mirror file already attached")
	}
	size, err := f.Size() // a fresh file: its head frame, if any
	if err != nil {
		return err
	}
	_, n := readHead(f, size)
	l.mirror.f, l.mirror.written, l.mirror.headLen = f, size, n
	l.m.headBytes.Add(uint64(n))
	return nil
}

// SyncMirror drains the mirror backlog: when it returns nil, every entry
// acknowledged so far with a sequence inside the window is durably in the
// mirror file — and the dual-write rule in flushLocked keeps that invariant
// for every later acknowledgement, so the checkpoint may flip the version
// at any moment after this.
func (l *Log) SyncMirror() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if !l.mirror.active || l.mirror.f == nil {
		return errors.New("wal: SyncMirror without attached mirror")
	}
	// Wait for progress, not for quiet: under a steady append stream the
	// log is flushing almost continuously and a wait for !syncing could
	// starve forever — but every one of those flushes drains the mirror
	// backlog too, so it is enough to watch mirror.written reach the
	// bytes appended so far. Frames appended after this point are the
	// dual-write rule's problem, not ours.
	target := l.mirror.written + l.mirror.inflight + int64(len(l.mirror.buf))
	for {
		if l.err != nil {
			return l.err
		}
		if l.mirror.written >= target {
			return nil
		}
		if !l.syncing && !l.holdFlush {
			if err := l.flushLocked(); err != nil {
				return err
			}
			continue
		}
		l.cond.Wait()
	}
}

// FinishMirror ends the mirror window by retargeting the log to the mirror
// file: the same Log keeps its sequence numbering and pending frames but
// appends to (and syncs) the new file from now on, and the old file handle
// is closed. The caller must have called SyncMirror and flipped the version
// first. It reports how many entries were appended during the window.
func (l *Log) FinishMirror(newName string) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, ErrClosed
	}
	// Block new flush leaders while we wait for the in-flight one: under a
	// steady append stream the log is otherwise flushing back-to-back and
	// this wait could starve. Parked appenders resume on the broadcast.
	l.holdFlush = true
	defer func() {
		l.holdFlush = false
		l.cond.Broadcast()
	}()
	for l.syncing {
		l.cond.Wait()
	}
	if l.err != nil {
		return 0, l.err
	}
	if !l.mirror.active || l.mirror.f == nil {
		return 0, errors.New("wal: FinishMirror without attached mirror")
	}
	old := l.f
	l.f = l.mirror.f
	l.name = newName
	// Since the last drain (SyncMirror at the latest), pending and
	// mirror.buf have held the same frames — flushes empty them together
	// and appends extend them together — so the unwritten tail and its
	// counters carry over unchanged.
	l.pending = l.mirror.buf
	l.size = l.mirror.written - l.mirror.headLen + int64(len(l.pending))
	entries := l.mirror.entries
	l.mirror = mirrorState{}
	l.spare = nil
	_ = old.Close() // the superseded version's log; best-effort
	return entries, nil
}

// AbortMirror ends the mirror window without switching files: buffered
// mirror frames are discarded and the mirror file, if attached, is closed.
// The log keeps appending to its current file. Safe to call in any state.
func (l *Log) AbortMirror() {
	l.mu.Lock()
	l.holdFlush = true
	for l.syncing {
		l.cond.Wait()
	}
	l.holdFlush = false
	f := l.mirror.f
	l.mirror = mirrorState{}
	l.cond.Broadcast()
	l.mu.Unlock()
	if f != nil {
		_ = f.Close()
	}
}

// Close closes the log file. Pending unsynced frames are flushed first,
// after any in-flight flush completes — there is never more than one flush
// writing the file at a time, which keeps frames in sequence order.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	for l.syncing {
		l.cond.Wait()
	}
	err := l.err // a poisoned log cannot flush what it still holds
	if err == nil && len(l.pending) > 0 {
		err = l.flushLocked()
	}
	l.closed = true
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReplayOptions configures log recovery.
type ReplayOptions struct {
	// SkipDamaged makes Replay hop over entries whose payload is
	// unreadable (hard media failure) instead of failing, implementing
	// the paper's "ignoring just the damaged log entry" recovery for
	// applications whose updates are independent.
	SkipDamaged bool
	// Repair truncates the log file in place after a torn tail entry is
	// detected, so a subsequent Open appends from the last good entry.
	Repair bool
	// Monotonic relaxes the dense-sequence check to strictly-increasing:
	// the log is one stream of a Sharded log, carrying only the global
	// sequences that hashed to it. The first entry must still be >=
	// firstSeq. Cross-stream gap detection is the merge's job
	// (ReplayShardedPipelined), not the stream's.
	Monotonic bool
	// Obs, when non-nil, receives the wal_torn_tails and
	// wal_damaged_entries recovery counters.
	Obs *obs.Registry
}

// ReplayResult describes what recovery found.
type ReplayResult struct {
	// Entries is the number of intact entries delivered.
	Entries int
	// LastSeq is the sequence of the last intact entry (0 if none).
	LastSeq uint64
	// NextSeq is the sequence a reopened log should continue from.
	NextSeq uint64
	// Truncated reports that a partially written tail entry was
	// discarded — the transient-failure case of §4.
	Truncated bool
	// Damaged is the number of unreadable entries skipped (only with
	// SkipDamaged).
	Damaged int
	// GoodSize is the byte offset just past the last intact entry.
	GoodSize int64
	// Head is the payload of the file's head frame, nil when it has none.
	Head []byte
}

// Replay reads the named log from the beginning, calling fn for each intact
// entry in order. A torn tail (truncated data or bad checksum at the end)
// ends replay without error. fn errors abort replay.
//
// firstSeq is the sequence expected of the first entry; Replay verifies the
// sequence numbers are dense so a lost or reordered entry is detected. The
// head frame comes back in the result. Every entry may depend on it, so an
// unreadable head with intact entries behind it fails replay; one unreadable
// or torn to the end of the file is a crash inside Create, an empty log.
func Replay(fs vfs.FS, name string, firstSeq uint64, opts ReplayOptions, fn func(seq uint64, payload []byte) error) (ReplayResult, error) {
	res := ReplayResult{NextSeq: firstSeq}
	f, err := fs.Open(name)
	if err != nil {
		return res, err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return res, err
	}

	var off int64
	if seq, payload, n, rerr := readEntry(f, 0, size); seq == 0 && n > 0 {
		switch {
		case rerr == nil:
			res.Head, off, res.GoodSize = payload, n, n
		case errors.Is(rerr, vfs.ErrDamaged) && anyIntactFrom(f, n, size):
			f.Close()
			return res, fmt.Errorf("wal: %s: head frame: %w", name, rerr)
		}
	}
	expect := firstSeq
	for off < size {
		entryStart := off
		seq, payload, n, rerr := readEntry(f, off, size)
		switch {
		case rerr == nil:
			// A sequence discontinuity with a valid CRC means the file
			// is not the log we think it is; fail loudly. A shard
			// stream (Monotonic) holds only the global sequences that
			// hashed to it, so there only a regression is a
			// discontinuity — cross-stream gaps are the merge's job.
			if opts.Monotonic && seq < expect {
				f.Close()
				return res, fmt.Errorf("wal: %s: entry at offset %d has sequence %d, want >= %d", name, entryStart, seq, expect)
			}
			if !opts.Monotonic && seq != expect {
				f.Close()
				return res, fmt.Errorf("wal: %s: entry at offset %d has sequence %d, want %d", name, entryStart, seq, expect)
			}
			if err := fn(seq, payload); err != nil {
				f.Close()
				return res, err
			}
			res.Entries++
			res.LastSeq = seq
			off += n
			res.GoodSize = off
			expect = seq + 1
			res.NextSeq = expect
		case errors.Is(rerr, vfs.ErrDamaged) && n > 0 && !anyIntactFrom(f, off+n, size):
			// Unreadable data running to the end of the log, with no
			// intact entry beyond it: indistinguishable from a flush
			// the crash interrupted mid-transfer — §2's torn update,
			// whose partially written pages read back as errors.
			// None of it committed (the sync never succeeded), so
			// discard it as a torn tail.
			res.Truncated = true
			off = size // stop
		case errors.Is(rerr, vfs.ErrDamaged) && opts.SkipDamaged && n > 0:
			// The frame header was readable, so we know the
			// entry's extent: hop over it. The update it held is
			// lost; the paper accepts this for independent
			// updates.
			res.Damaged++
			off += n
			res.GoodSize = off
			if opts.Monotonic && seq >= expect {
				expect = seq + 1
			} else if !opts.Monotonic {
				expect++
			}
			res.NextSeq = expect
		case errors.Is(rerr, errTorn):
			// Partial tail entry: the crash happened during this
			// entry's disk write, so the update did not commit.
			res.Truncated = true
			off = size // stop
		default:
			f.Close()
			return res, fmt.Errorf("wal: %s at offset %d: %w", name, entryStart, rerr)
		}
	}
	f.Close()

	if res.Damaged > 0 {
		opts.Obs.Counter("wal_damaged_entries").Add(uint64(res.Damaged))
	}
	if res.Truncated {
		opts.Obs.Counter("wal_torn_tails").Inc()
	}
	if res.Truncated && opts.Repair {
		rw, err := fs.OpenRW(name)
		if err != nil {
			return res, err
		}
		if err := rw.Truncate(res.GoodSize); err != nil {
			rw.Close()
			return res, err
		}
		if err := rw.Sync(); err != nil {
			rw.Close()
			return res, err
		}
		if err := rw.Close(); err != nil {
			return res, err
		}
	}
	return res, nil
}

// FirstSeq reports the sequence number of the named log's first intact
// entry, past its head frame, with ok=false for a log holding no entry (or
// immediately torn). Diagnostic
// tools use it to replay a log whose starting sequence they do not know.
func FirstSeq(fs vfs.FS, name string) (seq uint64, ok bool, err error) {
	_, err = Replay(fs, name, 1, ReplayOptions{Monotonic: true}, func(s uint64, _ []byte) error {
		seq, ok = s, true
		return errStopped
	})
	if err == errStopped {
		err = nil
	}
	return seq, ok, err
}

// anyIntactFrom reports whether any intact entry exists at or after off:
// the test separating a hard-failed entry in the middle of the log (intact
// data follows it) from a torn tail (unreadable to the end). It walks
// frame by frame while extents remain decodable.
func anyIntactFrom(f vfs.File, off, size int64) bool {
	for off < size {
		_, _, n, rerr := readEntry(f, off, size)
		switch {
		case rerr == nil:
			return true
		case errors.Is(rerr, vfs.ErrDamaged) && n > 0:
			off += n // extent known: keep scanning
		default:
			return false // torn or unreadable extent: nothing beyond
		}
	}
	return false
}

// errTorn marks a partially written tail entry.
var errTorn = errors.New("wal: torn tail entry")

// readEntry reads the frame at off. It returns the total frame length n
// when the header was decodable (even if the payload is damaged), so the
// caller can skip. A frame that runs past size, or whose CRC fails, is torn.
func readEntry(f vfs.File, off, size int64) (seq uint64, payload []byte, n int64, err error) {
	// Read the header (two uvarints ≤ 20 bytes). If the block read trips
	// over damage — which may lie in the payload bytes that follow the
	// header — fall back to reading one byte at a time so a readable
	// header in front of a damaged payload can still be parsed; the
	// paper's hop-over-the-damaged-entry recovery depends on the length
	// being legible.
	var hdr [2 * binary.MaxVarintLen64]byte
	hn, rerr := f.ReadAt(hdr[:], off)
	if errors.Is(rerr, vfs.ErrDamaged) {
		hn, rerr = 0, nil
		for i := range hdr {
			if _, berr := f.ReadAt(hdr[i:i+1], off+int64(i)); berr != nil {
				if errors.Is(berr, vfs.ErrDamaged) || berr == io.EOF {
					break
				}
				return 0, nil, 0, berr
			}
			hn++
		}
	}
	if rerr != nil && rerr != io.EOF {
		return 0, nil, 0, rerr
	}
	if hn == 0 {
		return 0, nil, 0, errTorn
	}
	seq, s1 := binary.Uvarint(hdr[:hn])
	if s1 <= 0 {
		return 0, nil, 0, errTorn
	}
	plen, s2 := binary.Uvarint(hdr[s1:hn])
	if s2 <= 0 {
		return 0, nil, 0, errTorn
	}
	hlen := int64(s1 + s2)
	if plen > uint64(size-off) { // cannot possibly fit: torn length or tail
		return 0, nil, 0, errTorn
	}
	n = hlen + int64(plen) + 4
	if off+n > size {
		return seq, nil, n, errTorn
	}
	body := make([]byte, int64(plen)+4)
	if _, rerr := f.ReadAt(body, off+hlen); rerr != nil && rerr != io.EOF {
		// Damaged payload: header told us the extent, so n is valid
		// for skipping.
		return seq, nil, n, rerr
	}
	payload = body[:plen]
	wantSum := binary.LittleEndian.Uint32(body[plen:])
	h := crc32.New(crcTable)
	h.Write(hdr[:hlen])
	h.Write(payload)
	if h.Sum32() != wantSum {
		return seq, nil, n, errTorn
	}
	return seq, payload, n, nil
}
