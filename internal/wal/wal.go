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
// needs no option: concurrent Appends share a single Sync. AppendAsync
// splits an append into its enqueue and its wait, so a committer can release
// its own locks in between and still share the sync.
//
// A log is one file, as each checkpoint version's log is in the paper's §3
// (logfileN). A database that wants several logs is several stores, one per
// partition (§7; internal/multistore), whose logs never order the same
// update.
//
// The file runs ahead of its frames. A flush whose frames would pass the
// file's end carries zeros up to the next 64 KiB boundary in its one write,
// and later flushes overwrite those zeros in place. A sync that changes no
// file size is the one data write the paper counts: on ext4 an appending
// fsync also commits a journal transaction for the new size, one more
// device write per update. So zeros running from a frame boundary to the
// end of the file are the log's clean end, not a torn tail; a zero run with
// anything but zeros behind it is torn, since the flush that left it
// persisted a later page before an earlier one.
package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strconv"
	"sync"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// maxSpareFlushBuf bounds the flush buffer kept across group commits.
const maxSpareFlushBuf = 1 << 20

// allocChunk is the boundary a flush that passes the file's end extends the
// file to, with zeros.
const allocChunk = 64 << 10

// zeros is what an extending flush appends to its frames.
var zeros [allocChunk]byte

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log is closed")

// errStopped ends a Replay whose callback has seen what it needed.
var errStopped = errors.New("wal: replay stopped")

// Options configures a Log.
type Options struct {
	// NoSync skips the Sync on append. Only for tests that model a
	// system without a commit point; the reliability experiments show
	// what it costs.
	NoSync bool
	// Head is the head frame payload Open gives a log file it finds absent
	// or holding no frame; nil writes no head.
	Head []byte
	// Obs, when non-nil, receives the log's metrics: wal_appends,
	// wal_append_bytes (entry frames), wal_head_bytes, wal_flushes,
	// wal_extends (flushes that grew the file), wal_flush_ns,
	// wal_flush_bytes (entry frames) and wal_group_entries.
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
	extends      *obs.Counter   // flushes that grew the file
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
		extends:      reg.Counter("wal_extends"),
		flushNS:      reg.Histogram("wal_flush_ns"),
		flushBytes:   reg.Histogram("wal_flush_bytes"),
		groupEntries: reg.Histogram("wal_group_entries"),
	}
}

// Log is an open redo log positioned for appending.
type Log struct {
	opts Options
	m    metrics

	mu           sync.Mutex
	cond         *sync.Cond
	f            vfs.File
	head         []byte // the payload of f's head frame at open, nil without one
	headLen      int64  // the length of f's head frame
	nextSeq      uint64
	end          int64  // file offset past the last frame enqueued
	alloc        int64  // f's length: zeros from the last frame written up to here
	pending      []byte // frames appended but not yet written+synced (group commit)
	spare        []byte // the previous flush's buffer, recycled to rebuild pending
	pendingCount int    // entries in pending
	pendingHi    uint64 // highest seq in pending
	committed    uint64 // highest seq known durable
	syncing      bool
	err          error // sticky: a failed log write poisons the log
	closed       bool
	// A checkpoint's tail: while tailFrom is not 0, every frame appended
	// from sequence tailFrom on is also copied into tail, for the new log
	// file the checkpoint creates (see BeginTail).
	tail     []byte
	tailFrom uint64
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
	return newLog(f, firstSeq, 0, nil, opts)
}

// HeadFrame is the head frame of a log file whose head payload is head: the
// file's first bytes, nil when head is.
func HeadFrame(head []byte) []byte {
	if head == nil {
		return nil
	}
	return frame(0, head)
}

// Open opens the named log for appending where the replay at left it: the
// next entry takes sequence at.NextSeq and is written at at.GoodSize, past
// the last intact frame, whatever the file holds beyond — so Open reads
// nothing of the log. A torn tail must have been cut first (Replay with
// Repair). A file that does not exist, or holds no frame — left so by a
// crash inside its creation — is first written (and synced) holding only
// opts.Head's frame. Any other failure to stat the file is returned: a log
// of acknowledged updates is never rewritten because it could not be read.
func Open(fs vfs.FS, name string, at ReplayResult, opts Options) (*Log, error) {
	if at.NextSeq == 0 {
		return nil, fmt.Errorf("wal: nextSeq must be ≥ 1")
	}
	end, head := at.GoodSize, at.Head
	size, err := fs.Stat(name)
	switch {
	case errors.Is(err, vfs.ErrNotExist) || err == nil && end == 0 && opts.Head != nil:
		end, head = int64(len(HeadFrame(opts.Head))), opts.Head
		err = vfs.WriteFile(fs, name, HeadFrame(opts.Head))
	case err == nil && (size < end || at.Truncated && size > end):
		err = fmt.Errorf("wal: %s holds %d bytes where its replay ended at %d: replay it with Repair before opening", name, size, end)
	}
	if err != nil {
		return nil, err
	}
	f, err := fs.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return newLog(f, at.NextSeq, end, head, opts)
}

// newLog wraps f as a Log appending from nextSeq at offset end, past a head
// frame holding head.
func newLog(f vfs.File, nextSeq uint64, end int64, head []byte, opts Options) (*Log, error) {
	alloc, err := f.Size()
	if err != nil {
		f.Close()
		return nil, err
	}
	n := int64(len(HeadFrame(head)))
	l := &Log{opts: opts, m: newMetrics(opts.Obs), f: f, head: head, headLen: n, nextSeq: nextSeq, end: end, alloc: alloc}
	l.m.headBytes.Add(uint64(n))
	l.cond = sync.NewCond(&l.mu)
	l.committed = nextSeq - 1
	return l, nil
}

// ReadHead returns the payload of the named log file's head frame, nil when
// it has none; it fails where a Replay skipping damaged entries fails before
// the first intact one.
func ReadHead(fs vfs.FS, name string) ([]byte, error) {
	res, err := Replay(fs, name, 0, ReplayOptions{SkipDamaged: true}, func(uint64, []byte) error { return errStopped })
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
	return l.end - l.headLen
}

// Head reports the head frame payload of the file the log was opened on, nil
// when it has none.
func (l *Log) Head() []byte { return l.head }

// DurableSeq reports the highest sequence known durable: every entry at or
// below it has been acknowledged.
func (l *Log) DurableSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.committed
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
	seq, err := l.enqueueLocked(payload)
	if err != nil {
		return 0, err
	}
	return seq, l.waitDurable(seq)
}

// AppendAsync is Append split in two: it frames the entry into the pending
// buffer, doing no I/O, and returns the entry's sequence and a wait that
// blocks until the entry is durable. A committer releases its own locks
// between the two, so commits that overlap share a sync. On a closed or
// poisoned log nothing is enqueued and the wait reports why.
func (l *Log) AppendAsync(payload []byte) (uint64, func() error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq, err := l.enqueueLocked(payload)
	if err != nil {
		return 0, func() error { return err }
	}
	return seq, func() error {
		l.mu.Lock()
		defer l.mu.Unlock()
		return l.waitDurable(seq)
	}
}

// enqueueLocked frames one entry at the next sequence into the pending
// buffer, or reports why a closed or poisoned log cannot take it. Called with
// l.mu held.
func (l *Log) enqueueLocked(payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if l.err != nil {
		return 0, l.err
	}
	seq := l.nextSeq
	l.nextSeq++
	was := len(l.pending)
	l.pending = appendFrame(l.pending, seq, payload)
	frameLen := len(l.pending) - was
	if l.tailFrom != 0 {
		l.tail = append(l.tail, l.pending[was:]...)
	}
	l.pendingCount++
	l.pendingHi = seq
	l.end += int64(frameLen)
	l.m.appends.Inc()
	l.m.appendBytes.Add(uint64(frameLen))
	return seq, nil
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
		if !l.syncing && len(l.pending) > 0 {
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

// flushLocked writes and syncs all pending frames, in one write at the end
// of the frames already written; the write carries zeros up to the next
// allocChunk boundary when the frames would pass the file's end. Called with
// l.mu held and no flush in flight; marks itself the flush in flight
// (l.syncing), releases l.mu around the I/O, and wakes every waiter when
// done.
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
	if len(buf) == 0 {
		l.spare = buf
		return nil
	}
	n := len(buf)
	off := l.end - int64(n)
	alloc := l.alloc
	if off+int64(n) > alloc {
		alloc = (off + int64(n) + allocChunk - 1) / allocChunk * allocChunk
		buf = append(buf, zeros[:alloc-off-int64(n)]...)
	}
	l.mu.Unlock()
	start := time.Now()
	_, err := l.f.WriteAt(buf, off)
	if err == nil && !l.opts.NoSync {
		err = l.f.Sync()
	}
	dur := time.Since(start)
	buf = buf[:n]
	l.m.flushes.Inc()
	l.m.flushNS.ObserveDuration(dur)
	l.m.flushBytes.Observe(int64(n))
	l.m.groupEntries.Observe(int64(entries))
	if l.opts.Tracer != nil {
		l.opts.Tracer.Emit(obs.Event{Name: "log.flush", Time: start, Dur: dur, Err: err, Attrs: []obs.Attr{
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
	if err != nil {
		l.err = fmt.Errorf("wal: append failed, log poisoned: %w", err)
		return l.err
	}
	if alloc > l.alloc {
		l.alloc = alloc
		l.m.extends.Inc()
	}
	if hi > l.committed {
		l.committed = hi
	}
	return nil
}

// Flush makes every enqueued entry durable before returning, waiting out
// any in-flight flush: the cut a checkpoint makes, and how audit-trail reads
// bring the file in line with the in-memory state. On a closed log it
// reports what Close left — nil once Close made everything durable — since a
// committer that has released its locks may reach here after Close.
func (l *Log) Flush() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.waitDurable(l.nextSeq - 1)
}

// BeginTail starts a checkpoint's tail: from here on every appended frame
// is also copied, for the new log file, which must hold every entry from
// the checkpoint's NextSeq on. The caller must have quiesced appends (the
// store holds the update lock) and flushed the log, or a frame enqueued
// before would be in neither the checkpoint nor the tail.
func (l *Log) BeginTail() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.settledLocked("BeginTail"); err != nil {
		return err
	}
	l.tail, l.tailFrom = nil, l.nextSeq
	return nil
}

// EndTail stops the tail and returns the frames copied since BeginTail and
// the number of entries they hold: what the checkpoint writes into its new
// log file at the flip, or drops when it aborts. With no tail open it
// returns nothing.
func (l *Log) EndTail() ([]byte, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	tail, entries := l.tail, int64(0)
	if l.tailFrom != 0 {
		entries = int64(l.nextSeq - l.tailFrom)
	}
	l.tail, l.tailFrom = nil, 0
	return tail, entries
}

// Retarget makes f the file the log appends to, and
// closes the old one: the end of a checkpoint, whose new log file f durably
// holds its head frame and the tail, and nothing past them. The sequence
// numbering goes on unchanged. The caller must have quiesced appends and
// flushed the log, so no frame is owed to the old file; the old file keeps
// its zeros until retention removes it.
func (l *Log) Retarget(f vfs.File) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.settledLocked("Retarget"); err != nil {
		return err
	}
	size, err := f.Size()
	if err != nil {
		return err
	}
	_, n := readHead(f, size)
	l.m.headBytes.Add(uint64(n))
	_ = l.f.Close() // the superseded version's log; best-effort
	l.f, l.headLen, l.end, l.alloc = f, n, size, size
	return nil
}

// settledLocked reports why op cannot run now: on a closed or poisoned log,
// or with a frame not yet durable. Called with l.mu held.
func (l *Log) settledLocked(op string) error {
	switch {
	case l.closed:
		return ErrClosed
	case l.err != nil:
		return l.err
	case len(l.pending) > 0 || l.syncing:
		return fmt.Errorf("wal: %s requires a flushed log", op)
	}
	return nil
}

// Close closes the log file. It takes no frame from the moment it is called;
// pending frames are flushed first, after any in-flight flush completes —
// there is never more than one flush writing the file at a time, which keeps
// frames in sequence order. That final flush acknowledges the committers
// still waiting on the frames it writes, or fails them with its error.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	for l.syncing {
		l.cond.Wait()
	}
	err := l.err // a poisoned log cannot flush what it still holds
	if err == nil && len(l.pending) > 0 {
		err = l.flushLocked()
	}
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
	// GoodSize is the byte offset just past the last intact entry: where
	// the log's zeros begin, if it ends in them, and where Open appends.
	GoodSize int64
	// Head is the payload of the file's head frame, nil when it has none.
	Head []byte
}

// Replay reads the named log from the beginning, calling fn for each intact
// entry in order. Zeros from a frame boundary to the end of the file are the
// log's clean end. A torn tail (truncated data or bad checksum at the end,
// zeros with anything but zeros behind them) ends replay without error. fn
// errors abort replay.
//
// firstSeq is the sequence expected of the first entry, 0 accepting any;
// Replay verifies the sequence numbers are dense from there on, so a lost or
// reordered entry is detected. The head frame comes back in the result. Every entry may depend on it, so an
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
			// is not the log we think it is; fail loudly. Sequence 0
			// is the head's alone.
			if seq == 0 || expect != 0 && seq != expect {
				want := strconv.FormatUint(expect, 10)
				if expect == 0 {
					want = ">= 1"
				}
				f.Close()
				return res, fmt.Errorf("wal: %s: entry at offset %d has sequence %d, want %s", name, entryStart, seq, want)
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
		case zeroFrom(f, off, size):
			// The file's allocated tail, where the next flush writes.
			off = size // stop
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
			if expect != 0 {
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

// zeroFrom reports whether every byte of f from off to size reads as zero.
func zeroFrom(f vfs.File, off, size int64) bool {
	var buf [4 << 10]byte
	for ; off < size; off += int64(len(buf)) {
		n, err := f.ReadAt(buf[:], off)
		if err != nil && (err != io.EOF || off+int64(n) < size) || !bytes.Equal(buf[:n], zeros[:n]) {
			return false
		}
	}
	return true
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
