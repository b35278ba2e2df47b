// Package multistore implements the paper's §7 scaling suggestion in its
// more interesting variant: "many larger databases (for example the
// directories of a large file system) could be handled by considering them
// as multiple separate databases for the purpose of writing checkpoints. In
// that case, we could either use multiple log files or a single log file
// with more complicated rules for flushing the log."
//
// A Set holds several named partitions. Each partition is an independent
// in-memory database with its own checkpoints — so a busy partition
// checkpoints often and a quiet one never pays — but all partitions commit
// to one shared, segmented log, so an update still costs exactly one disk
// write regardless of how many partitions exist.
//
// The "more complicated rules for flushing the log" become segment
// retirement: the shared log is a chain of segments (seg<firstSeq>); a
// segment may be deleted once, for every partition, the partition's
// checkpoint covers all of that partition's entries in the segment. The
// set tracks each segment's per-partition high-water sequence (rebuilt
// from the replay on recovery) to decide this precisely. A partition that
// never checkpoints still pins every segment containing its entries —
// exactly the coupling the paper's remark is about, and the reason its
// simpler alternative is one log file per database (see
// examples/filedirectory).
//
// Disk layout (one directory):
//
//	seg<N>           log segment whose first entry has sequence N
//	cp-<part>-<S>    partition <part>'s checkpoint covering sequences ≤ S
package multistore

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"smalldb/internal/core"
	"smalldb/internal/pickle"
	"smalldb/internal/sulock"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

const (
	segPrefix = "seg"
	cpPrefix  = "cp-"
)

// ErrClosed is returned by operations on a closed set.
var ErrClosed = errors.New("multistore: set is closed")

// ErrNoPartition is returned for an unknown partition name.
var ErrNoPartition = errors.New("multistore: no such partition")

// Config configures a Set.
type Config struct {
	// FS is the directory holding segments and checkpoints.
	FS vfs.FS
	// Partitions maps each partition name to its empty-root constructor.
	// Names may not contain '-' (it separates fields in file names).
	Partitions map[string]func() any
	// SegmentBytes rolls the shared log to a new segment past this size;
	// smaller segments retire sooner. Default 1 MiB.
	SegmentBytes int64
}

// segRecord is the pickled form of one shared-log entry.
type segRecord struct {
	Part string
	U    core.Update
}

// pheader is a partition checkpoint's contents.
type pheader struct {
	CpSeq uint64
	Root  any
}

// partition is one member database.
type partition struct {
	name  string
	lock  sulock.Lock
	root  any
	cpSeq uint64 // sequences ≤ cpSeq are covered by this partition's checkpoint; written under Set.mu

	applied uint64 // last sequence applied to root (any partition order; own entries only)
}

// Set is an open collection of partitions over one shared log.
type Set struct {
	cfg Config

	// rollMu serializes segment rolling against in-flight appends:
	// appenders hold it shared, the roller exclusively, so a segment is
	// never closed under an appender.
	rollMu sync.RWMutex

	mu       sync.Mutex // guards log administration and the partition map
	parts    map[string]*partition
	log      *wal.Log
	segBase  uint64 // first sequence of the current segment
	nextSeq  uint64
	closed   bool
	segParts map[uint64]map[string]uint64 // segment firstSeq -> partition -> max seq in segment
}

func segName(firstSeq uint64) string { return segPrefix + strconv.FormatUint(firstSeq, 10) }

func cpName(part string, seq uint64) string {
	return cpPrefix + part + "-" + strconv.FormatUint(seq, 10)
}

func parseSeg(name string) (uint64, bool) {
	if !strings.HasPrefix(name, segPrefix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(segPrefix):], 10, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

func parseCp(name string) (part string, seq uint64, ok bool) {
	if !strings.HasPrefix(name, cpPrefix) {
		return "", 0, false
	}
	rest := name[len(cpPrefix):]
	i := strings.LastIndexByte(rest, '-')
	if i <= 0 {
		return "", 0, false
	}
	v, err := strconv.ParseUint(rest[i+1:], 10, 64)
	if err != nil {
		return "", 0, false
	}
	return rest[:i], v, true
}

// Open recovers (or initializes) a Set.
func Open(cfg Config) (*Set, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("multistore: Config.FS is required")
	}
	if len(cfg.Partitions) == 0 {
		return nil, fmt.Errorf("multistore: no partitions configured")
	}
	if cfg.SegmentBytes <= 0 {
		cfg.SegmentBytes = 1 << 20
	}
	for name := range cfg.Partitions {
		if name == "" || strings.ContainsAny(name, "-/\\") {
			return nil, fmt.Errorf("multistore: invalid partition name %q", name)
		}
	}
	s := &Set{cfg: cfg, parts: make(map[string]*partition), segParts: make(map[uint64]map[string]uint64)}

	// 1. Load each partition's newest readable checkpoint.
	names, err := cfg.FS.List()
	if err != nil {
		return nil, err
	}
	newestCp := map[string]uint64{}
	for _, n := range names {
		if part, seq, ok := parseCp(n); ok {
			if seq >= newestCp[part] {
				newestCp[part] = seq
			}
		}
	}
	for name, newRoot := range cfg.Partitions {
		p := &partition{name: name}
		if seq, ok := newestCp[name]; ok {
			hdr, err := readPartCheckpoint(cfg.FS, cpName(name, seq))
			if err != nil {
				return nil, fmt.Errorf("multistore: partition %s: %w", name, err)
			}
			p.root = hdr.Root
			p.cpSeq = hdr.CpSeq
			p.applied = hdr.CpSeq
		} else {
			p.root = newRoot()
		}
		s.parts[name] = p
	}

	// 2. Replay the shared log segments in order, applying entries newer
	// than each partition's checkpoint.
	var segs []uint64
	for _, n := range names {
		if v, ok := parseSeg(n); ok {
			segs = append(segs, v)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	s.nextSeq = 1
	if len(segs) > 0 {
		s.nextSeq = segs[0]
	}
	for _, first := range segs {
		if first != s.nextSeq {
			return nil, fmt.Errorf("multistore: segment gap: have %s, expected seg%d", segName(first), s.nextSeq)
		}
		res, err := wal.Replay(cfg.FS, segName(first), first, wal.ReplayOptions{Repair: true}, func(seq uint64, payload []byte) error {
			var rec segRecord
			if err := pickle.Unmarshal(payload, &rec); err != nil {
				return fmt.Errorf("multistore: entry %d undecodable: %w", seq, err)
			}
			p, ok := s.parts[rec.Part]
			if !ok {
				return fmt.Errorf("%w: %q in log entry %d (partition removed from config?)", ErrNoPartition, rec.Part, seq)
			}
			s.recordSegEntry(first, rec.Part, seq)
			if seq <= p.cpSeq {
				return nil // already covered by the partition's checkpoint
			}
			if rec.U == nil {
				return fmt.Errorf("multistore: entry %d holds no update", seq)
			}
			if err := rec.U.Apply(p.root); err != nil {
				return fmt.Errorf("multistore: replaying entry %d into %s: %w", seq, rec.Part, err)
			}
			p.applied = seq
			return nil
		})
		if err != nil {
			return nil, err
		}
		s.nextSeq = res.NextSeq
		if res.Truncated && first != segs[len(segs)-1] {
			return nil, fmt.Errorf("multistore: %s is truncated mid-chain", segName(first))
		}
	}

	// 3. Open the newest segment for appending (or start the first).
	if len(segs) == 0 {
		l, err := wal.Create(cfg.FS, segName(1), 1, wal.Options{})
		if err != nil {
			return nil, err
		}
		s.log = l
		s.segBase = 1
	} else {
		last := segs[len(segs)-1]
		l, err := wal.Open(cfg.FS, segName(last), s.nextSeq, wal.Options{})
		if err != nil {
			return nil, err
		}
		s.log = l
		s.segBase = last
	}
	return s, nil
}

func readPartCheckpoint(fs vfs.FS, name string) (*pheader, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var hdr pheader
	if err := pickle.Read(f, &hdr); err != nil {
		return nil, fmt.Errorf("reading %s: %w", name, err)
	}
	if hdr.Root == nil {
		return nil, fmt.Errorf("%s is malformed", name)
	}
	return &hdr, nil
}

// Partitions lists the partition names, sorted.
func (s *Set) Partitions() []string {
	out := make([]string, 0, len(s.parts))
	for n := range s.parts {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func (s *Set) part(name string) (*partition, error) {
	p, ok := s.parts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPartition, name)
	}
	return p, nil
}

// View runs an enquiry on one partition under its shared lock.
func (s *Set) View(part string, fn func(root any) error) error {
	p, err := s.part(part)
	if err != nil {
		return err
	}
	p.lock.Shared()
	defer p.lock.SharedUnlock()
	return fn(p.root)
}

// Apply commits one update to one partition: the §3 protocol against the
// partition's lock, with the log entry appended to the shared log. Still
// exactly one disk write.
func (s *Set) Apply(part string, u core.Update) error {
	p, err := s.part(part)
	if err != nil {
		return err
	}
	p.lock.Update()

	if err := u.Verify(p.root); err != nil {
		p.lock.UpdateUnlock()
		return err
	}
	payload, err := pickle.Marshal(&segRecord{Part: part, U: u})
	if err != nil {
		p.lock.UpdateUnlock()
		return fmt.Errorf("multistore: pickling update: %w", err)
	}

	// Append under the shared roll lock so the segment cannot be closed
	// out from under us; record the entry against its segment for the
	// retirement rule.
	s.rollMu.RLock()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.rollMu.RUnlock()
		p.lock.UpdateUnlock()
		return ErrClosed
	}
	log := s.log
	base := s.segBase
	s.mu.Unlock()

	seq, err := log.Append(payload)
	if err == nil {
		s.mu.Lock()
		s.recordSegEntry(base, part, seq)
		s.mu.Unlock()
	}
	s.rollMu.RUnlock()
	if err != nil {
		p.lock.UpdateUnlock()
		return err
	}

	p.lock.Upgrade()
	applyErr := u.Apply(p.root)
	if applyErr == nil {
		p.applied = seq
	}
	p.lock.ExclusiveUnlock()
	if applyErr != nil {
		return fmt.Errorf("multistore: update logged but failed in memory: %w", applyErr)
	}

	s.maybeRoll()
	return nil
}

// recordSegEntry notes that a segment holds an entry of a partition, for
// the retirement rule. Called with s.mu held.
func (s *Set) recordSegEntry(segFirst uint64, part string, seq uint64) {
	m := s.segParts[segFirst]
	if m == nil {
		m = make(map[string]uint64)
		s.segParts[segFirst] = m
	}
	if seq > m[part] {
		m[part] = seq
	}
}

// maybeRoll starts a new segment when the current one is large enough. The
// exclusive roll lock keeps appenders out while the segment swaps.
func (s *Set) maybeRoll() {
	s.mu.Lock()
	needRoll := !s.closed && s.log.Size() >= s.cfg.SegmentBytes && s.log.NextSeq() > s.segBase
	s.mu.Unlock()
	if !needRoll {
		return
	}
	s.rollMu.Lock()
	defer s.rollMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.log.Size() < s.cfg.SegmentBytes {
		return // another roller got here first
	}
	next := s.log.NextSeq()
	if next == s.segBase { // empty segment; nothing to roll
		return
	}
	nl, err := wal.Create(s.cfg.FS, segName(next), next, wal.Options{})
	if err != nil {
		return // keep appending to the old segment; rolling is advisory
	}
	old := s.log
	s.log = nl
	s.segBase = next
	old.Close()
}

// Checkpoint writes one partition's checkpoint, covering everything applied
// to it so far, then retires any fully covered log segments. Only this
// partition's updates are excluded while its root pickles; all other
// partitions run untouched.
func (s *Set) Checkpoint(part string) error {
	p, err := s.part(part)
	if err != nil {
		return err
	}
	p.lock.Update()
	defer p.lock.UpdateUnlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	log := s.log
	s.mu.Unlock()
	// The partition's last applied entry must be durable before a
	// checkpoint claims to cover it.
	if err := log.Flush(); err != nil && !errors.Is(err, wal.ErrClosed) {
		return err
	}

	cpSeq := p.applied
	tmp := cpPrefix + p.name + ".tmp"
	f, err := s.cfg.FS.Create(tmp)
	if err != nil {
		return err
	}
	if err := pickle.Write(f, &pheader{CpSeq: cpSeq, Root: p.root}); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	// Atomic install; the rename is the commit point.
	if err := s.cfg.FS.Rename(tmp, cpName(p.name, cpSeq)); err != nil {
		return err
	}
	// Remove the superseded checkpoint.
	if oldCpName := cpName(p.name, p.cpSeq); p.cpSeq != cpSeq && vfs.Exists(s.cfg.FS, oldCpName) {
		_ = s.cfg.FS.Remove(oldCpName)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	p.cpSeq = cpSeq
	return s.retireSegments()
}

// retireSegments deletes every non-active segment all of whose entries are
// covered by their own partition's checkpoint — the shared log's flush
// rule. Called with s.mu held, which is also what every partition's cpSeq is
// written under: two partitions checkpointing at once decide and delete one
// after the other, so neither removes a segment the other already did. The
// chain comes from segParts — every segment but a still-empty active one
// holds an entry — not from a directory listing.
func (s *Set) retireSegments() error {
	segs := make([]uint64, 0, len(s.segParts))
	for first := range s.segParts {
		segs = append(segs, first)
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	// Only a prefix of the chain may be removed: recovery verifies the
	// remaining segments are sequence-contiguous.
	for _, first := range segs {
		if first == s.segBase {
			break // never retire the active segment
		}
		for part, maxSeq := range s.segParts[first] {
			if maxSeq > s.parts[part].cpSeq {
				return nil
			}
		}
		if err := s.cfg.FS.Remove(segName(first)); err != nil {
			return err
		}
		delete(s.segParts, first)
	}
	return nil
}

// Applied reports a partition's last applied sequence (diagnostics).
func (s *Set) Applied(part string) (uint64, error) {
	p, err := s.part(part)
	if err != nil {
		return 0, err
	}
	p.lock.Shared()
	defer p.lock.SharedUnlock()
	return p.applied, nil
}

// Segments reports the current on-disk segment count and total bytes.
func (s *Set) Segments() (count int, bytes int64, err error) {
	names, err := s.cfg.FS.List()
	if err != nil {
		return 0, 0, err
	}
	for _, n := range names {
		if _, ok := parseSeg(n); ok {
			count++
			sz, err := s.cfg.FS.Stat(n)
			if err != nil {
				return 0, 0, err
			}
			bytes += sz
		}
	}
	return count, bytes, nil
}

// Close flushes and closes the shared log.
func (s *Set) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.log.Close()
}
