package vfs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Profile describes a modeled disk. The zero Profile charges nothing, so a
// Metered over it only counts.
type Profile struct {
	// PerOpWrite is the fixed cost of one write operation (seek +
	// rotational latency + file-system overhead), charged per Sync,
	// Rename and Remove.
	PerOpWrite time.Duration
	// PerOpRead is the fixed cost charged when a file is opened.
	PerOpRead time.Duration
	// WriteBytesPerSec is the streaming write bandwidth; 0 is free.
	WriteBytesPerSec int64
	// ReadBytesPerSec is the streaming read bandwidth; 0 is free.
	ReadBytesPerSec int64
}

// Stats is a snapshot of a Metered's accounting.
type Stats struct {
	Syncs        int64 // commit-point disk writes
	Opens        int64
	BytesWritten int64 // bytes made durable by Syncs
	BytesRead    int64
	Reads        int64 // Read and ReadAt calls, empty ones too
	// ModeledIO is the total modeled disk time of all operations, as if
	// they had run on the profiled hardware one at a time.
	ModeledIO time.Duration
}

// Metered wraps an FS with a disk model: it counts the I/O moved through
// it and charges each operation the profile's time. A Sync costs
// PerOpWrite plus the handle's unsynced bytes at WriteBytesPerSec, an Open
// costs PerOpRead, and reads cost their bytes at ReadBytesPerSec.
//
// With scale > 0, operations really block for modeled time × scale. The
// disk has one arm: per-operation time is paid under it, so concurrent
// syncs serialize and group commit amortizes them, the effect the paper
// calls "the only scheme that will perform better". Transfer time is paid
// off the arm, so a checkpoint streaming a large file does not hold up log
// commits on another. Transfer debt under a millisecond, below a sleep's
// practical resolution, is carried and paid by whoever next takes the
// carried total past it. With scale 0 nothing blocks and modeled time only
// accumulates in Stats.
type Metered struct {
	fs    FS
	prof  Profile
	scale float64

	arm  sync.Mutex   // the disk arm: one per-operation charge at a time
	owed atomic.Int64 // carried transfer debt, in real nanoseconds

	mu    sync.Mutex
	stats Stats
}

// NewMetered wraps fs with prof. scale 1 blocks for full modeled time, 0.1
// runs ten times faster than modeled, and 0 only accounts.
func NewMetered(fs FS, prof Profile, scale float64) *Metered {
	return &Metered{fs: fs, prof: prof, scale: scale}
}

// Stats returns a snapshot of the counters.
func (m *Metered) Stats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ResetStats zeroes the counters, opening a new measurement window.
func (m *Metered) ResetStats() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.stats = Stats{}
}

// charge accounts one operation of perOp fixed time plus bytes at bps,
// and, when scale > 0, blocks for it.
func (m *Metered) charge(perOp time.Duration, bytes, bps int64, count func(*Stats)) {
	var xfer time.Duration
	if bps > 0 {
		xfer = time.Duration(bytes * int64(time.Second) / bps)
	}
	m.mu.Lock()
	count(&m.stats)
	m.stats.ModeledIO += perOp + xfer
	m.mu.Unlock()
	if m.scale <= 0 {
		return
	}
	if perOp > 0 {
		m.arm.Lock()
		time.Sleep(time.Duration(float64(perOp) * m.scale))
		m.arm.Unlock()
	}
	d := time.Duration(float64(xfer) * m.scale)
	if d < time.Millisecond {
		if m.owed.Add(int64(d)) < int64(time.Millisecond) {
			return
		}
		d = time.Duration(m.owed.Swap(0))
	}
	time.Sleep(d)
}

func (m *Metered) read(n int) {
	m.charge(0, int64(n), m.prof.ReadBytesPerSec, func(s *Stats) { s.Reads++; s.BytesRead += int64(n) })
}

// Create implements FS.
func (m *Metered) Create(name string) (File, error) { return m.wrap(m.fs.Create(name)) }

// Open implements FS, charging the per-operation read cost.
func (m *Metered) Open(name string) (File, error) {
	f, err := m.wrap(m.fs.Open(name))
	if err == nil {
		m.charge(m.prof.PerOpRead, 0, 0, func(s *Stats) { s.Opens++ })
	}
	return f, err
}

// OpenRW implements FS.
func (m *Metered) OpenRW(name string) (File, error) { return m.wrap(m.fs.OpenRW(name)) }

// Rename implements FS; a metadata operation costs one write op.
func (m *Metered) Rename(oldname, newname string) error {
	err := m.fs.Rename(oldname, newname)
	if err == nil {
		m.charge(m.prof.PerOpWrite, 0, 0, func(*Stats) {})
	}
	return err
}

// Remove implements FS; a metadata operation costs one write op.
func (m *Metered) Remove(name string) error {
	err := m.fs.Remove(name)
	if err == nil {
		m.charge(m.prof.PerOpWrite, 0, 0, func(*Stats) {})
	}
	return err
}

// List implements FS.
func (m *Metered) List() ([]string, error) { return m.fs.List() }

// Stat implements FS.
func (m *Metered) Stat(name string) (int64, error) { return m.fs.Stat(name) }

func (m *Metered) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &meteredFile{File: f, m: m}, nil
}

// meteredFile tracks its unsynced bytes so Sync can charge them.
type meteredFile struct {
	File
	m        *Metered
	unsynced atomic.Int64
}

func (f *meteredFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.m.read(n)
	return n, err
}

func (f *meteredFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.m.read(n)
	return n, err
}

func (f *meteredFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.unsynced.Add(int64(n))
	return n, err
}

func (f *meteredFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.unsynced.Add(int64(n))
	return n, err
}

func (f *meteredFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	bytes := f.unsynced.Swap(0)
	f.m.charge(f.m.prof.PerOpWrite, bytes, f.m.prof.WriteBytesPerSec, func(s *Stats) {
		s.Syncs++
		s.BytesWritten += bytes
	})
	return nil
}
