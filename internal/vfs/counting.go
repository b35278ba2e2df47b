package vfs

import "sync/atomic"

// Counting wraps an FS and tallies the I/O moved through it: bytes read,
// bytes written, and sync calls. Benchmarks wrap the store's file system
// with it to measure what a checkpoint or a restart actually cost the disk
// — independent of the store's own accounting — and Reset the counters
// between measurement windows. The counters are atomic, so concurrent
// writers (sharded log streams, background checkpoints) tally correctly.
type Counting struct {
	fs         FS
	readBytes  atomic.Int64
	writeBytes atomic.Int64
	syncs      atomic.Int64
}

// NewCounting wraps fs with zeroed counters.
func NewCounting(fs FS) *Counting { return &Counting{fs: fs} }

// ReadBytes reports the bytes read since the last Reset.
func (c *Counting) ReadBytes() int64 { return c.readBytes.Load() }

// WriteBytes reports the bytes written since the last Reset.
func (c *Counting) WriteBytes() int64 { return c.writeBytes.Load() }

// Syncs reports the Sync calls since the last Reset.
func (c *Counting) Syncs() int64 { return c.syncs.Load() }

// Reset zeroes all counters, opening a new measurement window.
func (c *Counting) Reset() {
	c.readBytes.Store(0)
	c.writeBytes.Store(0)
	c.syncs.Store(0)
}

// Create implements FS.
func (c *Counting) Create(name string) (File, error) { return c.wrap(c.fs.Create(name)) }

// Open implements FS.
func (c *Counting) Open(name string) (File, error) { return c.wrap(c.fs.Open(name)) }

// Append implements FS.
func (c *Counting) Append(name string) (File, error) { return c.wrap(c.fs.Append(name)) }

// OpenRW implements FS.
func (c *Counting) OpenRW(name string) (File, error) { return c.wrap(c.fs.OpenRW(name)) }

// Rename implements FS.
func (c *Counting) Rename(oldname, newname string) error { return c.fs.Rename(oldname, newname) }

// Remove implements FS.
func (c *Counting) Remove(name string) error { return c.fs.Remove(name) }

// List implements FS.
func (c *Counting) List() ([]string, error) { return c.fs.List() }

// Stat implements FS.
func (c *Counting) Stat(name string) (int64, error) { return c.fs.Stat(name) }

func (c *Counting) wrap(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: c}, nil
}

type countingFile struct {
	File
	fs *Counting
}

func (f *countingFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.fs.readBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) WriteAt(p []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(p, off)
	f.fs.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error {
	f.fs.syncs.Add(1)
	return f.File.Sync()
}
