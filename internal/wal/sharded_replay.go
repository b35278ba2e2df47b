package wal

import (
	"errors"
	"fmt"
	"sync"

	"smalldb/internal/vfs"
)

// Pipelined recovery: restart time is dominated by re-deserializing log
// entries, which is pure CPU and embarrassingly parallel, while applying
// them must stay strictly sequential to reproduce the exact pre-crash
// state. So the two are split: one goroutine per stream scans frames off
// the disk, a shared bounded worker pool decodes payloads out of order, and
// the caller's goroutine applies results in global sequence order —
// repeatedly the smallest sequence among the streams' next entries. The
// applied state is byte-identical to a sequential Replay; only the wall
// clock differs. The merged prefix must be
// dense: the first missing sequence ends recovery, because the epoch
// barrier acknowledges sequences strictly in order — an acknowledged
// update's epoch synced on every participating stream, so every sequence
// up to the durable frontier is present, and anything beyond a gap belongs
// to an epoch whose barrier never completed and was never acknowledged.
// With Repair, those beyond-the-gap entries are truncated from their
// streams ("unsynced epochs fully discarded") so a reopened log appends
// cleanly after the frontier.
//
// The paper's skip-damaged-entry recovery (§4) is a single-stream feature:
// in a merge, hopping over a damaged entry would be indistinguishable from
// truncating at a gap, and truncating after hard damage could discard
// acknowledged entries on other streams. A damaged entry mid-stream
// therefore fails sharded recovery loudly (the retained-version fallback
// chain still applies).

// errStopped aborts a scanner once the applier has already failed; the
// applier's error wins.
var errStopped = errors.New("wal: replay stopped")

// A DecodeFunc turns one log entry's payload into the value applied for it.
type DecodeFunc func(seq uint64, payload []byte) (any, error)

// replayJob carries one intact log entry through the decode pool.
type replayJob struct {
	seq     uint64
	payload []byte
	decode  DecodeFunc // its stream file's
	v       any
	err     error
	done    chan struct{} // closed when v/err are ready
}

// ShardedReplayResult describes what sharded recovery found.
type ShardedReplayResult struct {
	// Names are the stream files discovered, in stream order.
	Names []string
	// StreamResults holds each stream's own replay result, index-aligned
	// with Names.
	StreamResults []ReplayResult
	// Entries is the number of entries applied: the merged dense prefix.
	Entries int
	// LastSeq is the sequence of the last applied entry (0 if none).
	LastSeq uint64
	// NextSeq is the sequence a reopened log should continue from.
	NextSeq uint64
	// Truncated reports that at least one stream ended in a torn tail.
	Truncated bool
	// Damaged is the number of unreadable entries skipped — only possible
	// with a single stream, where SkipDamaged applies.
	Damaged int
	// GapAt is the first missing sequence (0 when the merge was dense to
	// the end): the point where an epoch's barrier was interrupted.
	GapAt uint64
	// Discarded counts intact entries found beyond GapAt and discarded as
	// unacknowledged.
	Discarded int
}

// FirstSeqSharded reports the lowest first sequence across the streams of
// a sharded log — the merge's starting sequence — with ok=false when every
// stream is empty. Diagnostic tools use it as they use FirstSeq.
func FirstSeqSharded(fs vfs.FS, base string) (uint64, bool, error) {
	names, err := ShardFiles(fs, base)
	if err != nil {
		return 0, false, err
	}
	var min uint64
	found := false
	for _, n := range names {
		seq, ok, err := FirstSeq(fs, n)
		if err != nil {
			return 0, false, err
		}
		if ok && (!found || seq < min) {
			min, found = seq, true
		}
	}
	return min, found, nil
}

// ReplayShardedPipelined replays every stream of the sharded log rooted at
// base (whatever streams exist on disk, regardless of the configured shard
// count), decoding entries concurrently on up to workers goroutines and
// applying them strictly in global sequence order starting at firstSeq.
// Each file's entries decode with the DecodeFunc newDecode returns for its
// head payload (nil without one). A DecodeFunc must not touch shared state;
// payload is owned by the callee. The base file alone is the paper's single
// log: its sequences are checked dense in-stream, SkipDamaged applies, and
// with workers <= 1 it is read by the plain sequential Replay — the
// reference the pipelined paths are tested against.
func ReplayShardedPipelined(fs vfs.FS, base string, firstSeq uint64, opts ReplayOptions, workers int,
	newDecode func(head []byte) (DecodeFunc, error),
	apply func(seq uint64, v any) error) (ShardedReplayResult, error) {
	names, err := ShardFiles(fs, base)
	if err != nil {
		return ShardedReplayResult{}, err
	}
	if len(names) == 0 {
		// No stream files at all: surface the same error a single-stream
		// replay of the missing base would.
		_, err := fs.Open(base)
		return ShardedReplayResult{}, err
	}
	single := len(names) == 1 && names[0] == base
	decoders := make([]DecodeFunc, len(names))
	for i, name := range names {
		head, err := ReadHead(fs, name)
		if err == nil {
			decoders[i], err = newDecode(head)
		}
		if err != nil {
			return ShardedReplayResult{}, err
		}
	}
	if single && workers <= 1 {
		decode := decoders[0]
		res, err := Replay(fs, base, firstSeq, opts, func(seq uint64, payload []byte) error {
			v, err := decode(seq, payload)
			if err != nil {
				return err
			}
			return apply(seq, v)
		})
		return ShardedReplayResult{
			Names:         names,
			StreamResults: []ReplayResult{res},
			Entries:       res.Entries,
			LastSeq:       res.LastSeq,
			NextSeq:       res.NextSeq,
			Truncated:     res.Truncated,
			Damaged:       res.Damaged,
		}, err
	}

	// Per-stream scans deliver jobs in stream order on their own channel
	// (for the merge) and into the shared decode pool. Across several
	// streams Monotonic replaces the dense check within a stream and
	// SkipDamaged is off (see above).
	sopts := opts
	if !single {
		sopts.Monotonic = true
		sopts.SkipDamaged = false
	}
	workers = max(1, workers)

	type streamScan struct {
		ch  chan *replayJob
		res ReplayResult
		err error
	}
	scans := make([]*streamScan, len(names))
	jobs := make(chan *replayJob, 2*workers)
	stop := make(chan struct{})
	var stopOnce sync.Once
	halt := func() { stopOnce.Do(func() { close(stop) }) }

	var decodeWG sync.WaitGroup
	for i := 0; i < workers; i++ {
		decodeWG.Add(1)
		go func() {
			defer decodeWG.Done()
			for j := range jobs {
				j.v, j.err = j.decode(j.seq, j.payload)
				close(j.done)
			}
		}()
	}

	var scanWG sync.WaitGroup
	for si, name := range names {
		sc := &streamScan{ch: make(chan *replayJob, 2*workers)}
		scans[si] = sc
		scanWG.Add(1)
		go func(name string, decode DecodeFunc) {
			defer scanWG.Done()
			sc.res, sc.err = Replay(fs, name, firstSeq, sopts, func(seq uint64, payload []byte) error {
				j := &replayJob{seq: seq, payload: payload, decode: decode, done: make(chan struct{})}
				select {
				case sc.ch <- j:
				case <-stop:
					return errStopped
				}
				select {
				case jobs <- j:
				case <-stop:
					return errStopped
				}
				return nil
			})
			close(sc.ch)
		}(name, decoders[si])
	}
	go func() {
		scanWG.Wait()
		close(jobs)
	}()

	// The merge: keep one head per stream, apply the smallest, refill.
	// Refilling blocks on that stream's scanner — necessary, since any
	// stream might hold the next expected sequence (the stream count may
	// have changed since the entries were written).
	res := ShardedReplayResult{Names: names, NextSeq: firstSeq}
	heads := make([]*replayJob, len(scans))
	expect := firstSeq
	var applyErr error
merge:
	for {
		best := -1
		for i, sc := range scans {
			if heads[i] == nil && sc.ch != nil {
				j, ok := <-sc.ch
				if !ok {
					scans[i].ch = nil
				} else {
					heads[i] = j
				}
			}
			if heads[i] != nil && (best == -1 || heads[i].seq < heads[best].seq) {
				best = i
			}
		}
		if best == -1 {
			break // every stream drained
		}
		j := heads[best]
		switch {
		case j.seq < expect:
			// In-stream regressions are caught by Monotonic; a
			// cross-stream duplicate means the files disagree about
			// the ticket — corruption, not a crash artifact.
			applyErr = fmt.Errorf("wal: %s: duplicate sequence %d across streams of %s", names[best], j.seq, base)
			halt()
			break merge
		case j.seq > expect && !single:
			// The first missing sequence: the acknowledged prefix ends
			// here. Everything still unapplied was never acknowledged.
			// (A single stream's own dense check leaves only the hole of
			// an entry SkipDamaged hopped over, which is not a gap.)
			res.GapAt = expect
			halt()
			break merge
		}
		heads[best] = nil
		<-j.done
		if j.err != nil {
			applyErr = j.err
			halt()
			break
		}
		if err := apply(j.seq, j.v); err != nil {
			applyErr = err
			halt()
			break
		}
		res.Entries++
		res.LastSeq = j.seq
		expect = j.seq + 1
		res.NextSeq = expect
	}
	halt()
	scanWG.Wait()
	decodeWG.Wait()

	res.StreamResults = make([]ReplayResult, len(scans))
	scanned := 0
	for i, sc := range scans {
		res.StreamResults[i] = sc.res
		if sc.res.Truncated {
			res.Truncated = true
		}
		res.Damaged += sc.res.Damaged
		scanned += sc.res.Entries
		if sc.err != nil && sc.err != errStopped && applyErr == nil {
			applyErr = sc.err
		}
	}
	if applyErr != nil {
		return res, applyErr
	}
	if res.GapAt != 0 {
		res.Discarded = scanned - res.Entries
		if opts.Repair {
			// Discard the unacknowledged epochs: truncate every stream
			// after its last intact entry below the gap, so a reopened
			// log reuses the sequences without colliding with stale
			// frames.
			for _, name := range names {
				if err := truncateBeyondSeq(fs, name, res.GapAt-1); err != nil {
					return res, err
				}
			}
		}
	}
	return res, nil
}

// truncateBeyondSeq truncates the named stream file after its last leading
// intact entry with sequence <= maxSeq. The scan stops at the first torn
// or damaged frame too, so a stream's unreadable tail goes with its
// beyond-the-gap entries.
func truncateBeyondSeq(fs vfs.FS, name string, maxSeq uint64) error {
	f, err := fs.Open(name)
	if err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		f.Close()
		return err
	}
	var off, good int64
	for off < size {
		seq, _, n, rerr := readEntry(f, off, size)
		if rerr != nil || seq > maxSeq {
			break
		}
		off += n
		good = off
	}
	if err := f.Close(); err != nil {
		return err
	}
	if good == size {
		return nil
	}
	rw, err := fs.OpenRW(name)
	if err != nil {
		return err
	}
	if err := rw.Truncate(good); err != nil {
		rw.Close()
		return err
	}
	if err := rw.Sync(); err != nil {
		rw.Close()
		return err
	}
	return rw.Close()
}
