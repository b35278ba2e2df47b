package vfs

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
)

// Mem is an in-memory FS with crash simulation.
//
// Durability model: file *data* becomes durable only when the file is
// Synced; directory operations (Create of an empty file, Rename, Remove) are
// durable immediately, as on a journalled file system with ordered metadata.
// This is the model the paper's checkpoint-switch protocol is written
// against — it fsyncs file contents before the version-file rename and
// treats the rename itself as the atomic step.
//
// Crash() discards all unsynced data, simulating a transient failure.
// CrashTorn(pageSize) persists, for each file with unsynced data, a random
// page-aligned prefix of that data before discarding the rest, and marks the
// final partially-persisted page damaged — matching the paper's hardware,
// where "a partially written page will report an error when it is read".
//
// Damage(name, off, n) marks a byte range of a file's durable content
// unreadable, simulating a hard media failure.
type Mem struct {
	mu    sync.Mutex
	files map[string]*memFile
	rng   *rand.Rand

	// FailSync, when non-nil, is consulted before each Sync; returning an
	// error makes the Sync fail without persisting. Used for fault
	// injection in tests.
	FailSync func(name string) error
}

// dirtyPageSize is the granularity at which unsynced in-place overwrites
// are tracked, so CrashTorn can persist a random subset of dirty pages —
// the torn multi-page update of the paper's §2.
const dirtyPageSize = 512

type memFile struct {
	synced       []byte         // durable content
	current      []byte         // content as the running program sees it
	damaged      ranges         // damaged bytes (durable content)
	dirty        map[int64]bool // page indices overwritten since last sync
	minDirty     int64          // lowest offset written or truncated to since last sync; -1 = none
	maxDirty     int64          // end of the highest range written or truncated since last sync
	failedFrom   int64          // start of a failed sync's damaged tail; -1 = none
	syncedExists bool           // whether the file survives a crash at all
	cow          bool           // byte slices are shared with a clone parent
}

// materialize gives a copy-on-write file private byte slices before the
// first mutation, so a CloneSynced image and its parent never scribble on
// each other's backing arrays.
func (f *memFile) materialize() {
	if !f.cow {
		return
	}
	f.current = append(f.current[:0:0], f.current...)
	f.synced = append(f.synced[:0:0], f.synced...)
	f.cow = false
}

// NewMem returns an empty in-memory file system. seed fixes the randomness
// used by CrashTorn, keeping reliability experiments reproducible.
func NewMem(seed int64) *Mem {
	return &Mem{files: make(map[string]*memFile), rng: rand.New(rand.NewSource(seed))}
}

func (m *Mem) get(name string) (*memFile, error) {
	if err := ValidName(name); err != nil {
		return nil, err
	}
	f, ok := m.files[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotExist, name)
	}
	return f, nil
}

// Create implements FS.
func (m *Mem) Create(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err := ValidName(name); err != nil {
		return nil, err
	}
	f := &memFile{minDirty: -1, failedFrom: -1, syncedExists: true}
	m.files[name] = f
	return &memHandle{fs: m, f: f, name: name, writable: true}, nil
}

// Open implements FS.
func (m *Mem) Open(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.get(name)
	if err != nil {
		return nil, err
	}
	return &memHandle{fs: m, f: f, name: name}, nil
}

// OpenRW implements FS.
func (m *Mem) OpenRW(name string) (File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.get(name)
	if err != nil {
		return nil, err
	}
	return &memHandle{fs: m, f: f, name: name, writable: true}, nil
}

// Rename implements FS. It is atomic and immediately durable.
func (m *Mem) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.get(oldname)
	if err != nil {
		return err
	}
	if err := ValidName(newname); err != nil {
		return err
	}
	delete(m.files, oldname)
	m.files[newname] = f
	return nil
}

// Remove implements FS; immediately durable.
func (m *Mem) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, err := m.get(name); err != nil {
		return err
	}
	delete(m.files, name)
	return nil
}

// List implements FS.
func (m *Mem) List() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.files))
	for n := range m.files {
		names = append(names, n)
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements FS.
func (m *Mem) Stat(name string) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.get(name)
	if err != nil {
		return 0, err
	}
	return int64(len(f.current)), nil
}

// Crash simulates a transient failure: every file reverts to its last
// synced content, and files never synced since creation revert to the state
// their metadata implies (they exist, empty-at-last-sync).
func (m *Mem) Crash() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		if !f.syncedExists {
			delete(m.files, name)
			continue
		}
		f.current = append(f.current[:0:0], f.synced...)
		f.dirty = nil
		f.minDirty, f.maxDirty = -1, 0
		f.failedFrom = -1
	}
}

// CloneSynced returns a new, independent Mem holding this file system's
// durable view: exactly what a restart would find after a crash at this
// instant — synced content only, unsynced data and never-synced files gone,
// damage marks preserved. The clone is cheap: byte slices are shared
// copy-on-write with the parent (O(files), not O(bytes)), so a crash-point
// torture run can snapshot the disk at every operation without copying the
// whole file system each time. Open handles are not cloned.
func (m *Mem) CloneSynced() *Mem {
	m.mu.Lock()
	defer m.mu.Unlock()
	clone := &Mem{files: make(map[string]*memFile, len(m.files)), rng: rand.New(rand.NewSource(1))}
	for name, f := range m.files {
		if !f.syncedExists {
			continue
		}
		nf := &memFile{
			synced:       f.synced,
			current:      f.synced, // the durable view IS the content after a crash
			damaged:      append(ranges(nil), f.damaged...).set(int64(len(f.synced)), math.MaxInt64, false),
			minDirty:     -1,
			failedFrom:   -1,
			syncedExists: true,
			cow:          true,
		}
		// The parent now shares its synced slice with the clone; its next
		// mutation must copy first too.
		f.cow = true
		clone.files[name] = nf
	}
	return clone
}

// CrashTorn is Crash, except that for each file with unsynced data a random
// pageSize-aligned prefix of the pending bytes becomes durable first, and if
// the prefix ends mid-page the final partial page is marked damaged so that
// reading it fails — the paper's torn-page model.
func (m *Mem) CrashTorn(pageSize int) {
	if pageSize <= 0 {
		pageSize = 512
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for name, f := range m.files {
		if !f.syncedExists {
			delete(m.files, name)
			continue
		}
		f.materialize()
		// In-place overwrites within the synced extent: each dirty page
		// independently persists or reverts, so a multi-page in-place
		// update can land half-written — §2's torn-update hazard.
		pages := make([]int64, 0, len(f.dirty))
		for pg := range f.dirty {
			pages = append(pages, pg)
		}
		sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
		for _, pg := range pages {
			start := pg * dirtyPageSize
			end := start + dirtyPageSize
			if end > int64(len(f.synced)) {
				end = int64(len(f.synced))
			}
			if end > int64(len(f.current)) {
				end = int64(len(f.current))
			}
			if start >= end {
				continue // beyond the synced extent: append logic below
			}
			if m.rng.Intn(2) == 0 {
				copy(f.synced[start:end], f.current[start:end])
			}
		}
		if len(f.current) > len(f.synced) {
			pending := len(f.current) - len(f.synced)
			keep := m.rng.Intn(pending + 1)
			durable := append(f.synced, f.current[len(f.synced):len(f.synced)+keep]...)
			if keep%pageSize != 0 && m.rng.Intn(2) == 0 {
				// The last, partially written page reads back
				// as an error.
				f.damaged = f.damaged.set(int64(len(durable)-keep%pageSize), int64(len(durable)), true)
			}
			f.synced = durable
		}
		f.current = append(f.synced[:0:0], f.synced...)
		f.dirty = nil
		f.minDirty, f.maxDirty = -1, 0
	}
}

// Damage marks n bytes at off of the named file's content unreadable,
// simulating a hard media failure.
func (m *Mem) Damage(name string, off, n int64) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, err := m.get(name)
	if err != nil {
		return err
	}
	f.damaged = f.damaged.set(off, off+n, true)
	return nil
}

// TotalBytes reports the summed sizes of all files: the design's disk-space
// cost, measured in experiment E7.
func (m *Mem) TotalBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, f := range m.files {
		total += int64(len(f.current))
	}
	return total
}

// memHandle is an open handle onto a memFile.
type memHandle struct {
	fs       *Mem
	f        *memFile
	name     string
	pos      int64
	writable bool
	closed   bool
}

func (h *memHandle) Name() string { return h.name }

func (h *memHandle) Size() (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return int64(len(h.f.current)), nil
}

func (h *memHandle) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n, err := h.readAtLocked(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.readAtLocked(p, off)
}

func (h *memHandle) readAtLocked(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("vfs: read on closed file %s", h.name)
	}
	if off >= int64(len(h.f.current)) {
		return 0, io.EOF
	}
	n := copy(p, h.f.current[off:])
	rs := h.f.damaged
	if i := sort.Search(len(rs), func(i int) bool { return rs[i].to > off }); i < len(rs) && max(rs[i].from, off) < off+int64(n) {
		return 0, fmt.Errorf("%w: %s at offset %d", ErrDamaged, h.name, max(rs[i].from, off))
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *memHandle) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	n, err := h.writeAtLocked(p, h.pos)
	h.pos += int64(n)
	return n, err
}

func (h *memHandle) WriteAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return h.writeAtLocked(p, off)
}

func (h *memHandle) writeAtLocked(p []byte, off int64) (int, error) {
	if h.closed {
		return 0, fmt.Errorf("vfs: write on closed file %s", h.name)
	}
	if !h.writable {
		return 0, fmt.Errorf("vfs: write on read-only file %s", h.name)
	}
	h.f.materialize()
	if grow := off + int64(len(p)) - int64(len(h.f.current)); grow > 0 {
		h.f.current = append(h.f.current, make([]byte, grow)...)
	}
	copy(h.f.current[off:], p)
	if len(p) > 0 {
		if h.f.dirty == nil {
			h.f.dirty = make(map[int64]bool)
		}
		for pg := off / dirtyPageSize; pg <= (off+int64(len(p))-1)/dirtyPageSize; pg++ {
			h.f.dirty[pg] = true
		}
		h.f.touch(off, off+int64(len(p)))
	}
	// Overwriting repairs damage at those offsets once synced; track by
	// clearing damage on write (the new data is what subsequent reads
	// should see).
	h.f.damaged = h.f.damaged.set(off, off+int64(len(p)), false)
	return len(p), nil
}

func (h *memHandle) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	var base int64
	switch whence {
	case io.SeekStart:
		base = 0
	case io.SeekCurrent:
		base = h.pos
	case io.SeekEnd:
		base = int64(len(h.f.current))
	default:
		return 0, fmt.Errorf("vfs: bad whence %d", whence)
	}
	if base+offset < 0 {
		return 0, fmt.Errorf("vfs: negative seek")
	}
	h.pos = base + offset
	return h.pos, nil
}

func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if !h.writable {
		return fmt.Errorf("vfs: truncate on read-only file %s", h.name)
	}
	h.f.materialize()
	cur := int64(len(h.f.current))
	h.f.touch(min(size, cur), max(size, cur))
	switch {
	case size < cur:
		h.f.current = h.f.current[:size]
	case size > cur:
		h.f.current = append(h.f.current, make([]byte, size-cur)...)
	}
	return nil
}

func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	var err error
	if h.fs.FailSync != nil {
		err = h.fs.FailSync(h.name)
	}
	h.f.materialize()
	if err != nil {
		// A failed sync is an interrupted flush: every byte written
		// since the last sync — appended or over synced bytes — is
		// now indeterminate on disk, and §2's torn-update model says
		// a partially written page reads back as an error. Make the
		// written pages, from the lowest byte written, durable but
		// damaged (the marks survive Crash) rather than pretending
		// the flush never started, or leaving a reader data no crash
		// would keep. Overwriting the region, or a later successful
		// Sync of it, repairs it.
		for pg := range h.f.dirty {
			h.f.damaged = h.f.damaged.set(max(pg*dirtyPageSize, h.f.minDirty), min((pg+1)*dirtyPageSize, h.f.maxDirty, int64(len(h.f.current))), true)
		}
		if h.f.minDirty >= 0 && (h.f.failedFrom < 0 || h.f.minDirty < h.f.failedFrom) {
			h.f.failedFrom = h.f.minDirty
		}
	} else if h.f.failedFrom >= 0 {
		// A successful flush repairs earlier failed-sync damage: the
		// whole region is rewritten from intact in-memory data.
		h.f.damaged = h.f.damaged.set(h.f.failedFrom, int64(len(h.f.current)), false)
		h.f.failedFrom = -1
	}
	// Only the bytes written or truncated since the last sync, and a grown
	// file's new tail, differ from the synced copy, so only they are
	// copied: a log's sync costs what it wrote, whether it appends or
	// overwrites its own zeros.
	old := min(int64(len(h.f.synced)), int64(len(h.f.current)))
	if err == nil || old == int64(len(h.f.synced)) { // a failed sync persists no shrink
		h.f.synced = append(h.f.synced[:old], h.f.current[old:]...)
	}
	if h.f.minDirty >= 0 && h.f.minDirty < old {
		copy(h.f.synced[h.f.minDirty:old], h.f.current[h.f.minDirty:min(old, h.f.maxDirty)])
	}
	h.f.syncedExists = true
	if err != nil {
		// The data is still unflushed, and a retried Sync must know
		// the region to repair.
		return err
	}
	h.f.dirty = nil
	h.f.minDirty, h.f.maxDirty = -1, 0
	return nil
}

// touch records [from, to) as written or truncated since the last sync.
func (f *memFile) touch(from, to int64) {
	if f.minDirty < 0 || from < f.minDirty {
		f.minDirty = from
	}
	f.maxDirty = max(f.maxDirty, to)
}

func (h *memHandle) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	h.closed = true
	return nil
}

// ranges holds a file's damaged bytes as sorted, disjoint, non-touching
// [from, to) ranges.
type ranges []byteRange

type byteRange struct{ from, to int64 }

// set marks [from, to) damaged, or intact when damaged is false.
func (rs ranges) set(from, to int64, damaged bool) ranges {
	i := sort.Search(len(rs), func(i int) bool { return rs[i].to >= from })
	j := i
	for j < len(rs) && rs[j].from <= to {
		j++
	}
	if from >= to || !damaged && i == j {
		return rs
	}
	lo, hi := from, to // the span of [from, to) and the ranges it meets
	if i < j {
		lo, hi = min(lo, rs[i].from), max(hi, rs[j-1].to)
	}
	mid := []byteRange{{lo, hi}}
	if !damaged {
		mid = slices.DeleteFunc([]byteRange{{lo, from}, {to, hi}}, func(r byteRange) bool { return r.from == r.to })
	}
	return slices.Replace(rs, i, j, mid...)
}
