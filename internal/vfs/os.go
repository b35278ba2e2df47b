package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// OS is an FS backed by a single directory on the real file system. Rename
// fsyncs the directory afterwards so the rename itself is durable — the
// "appropriate number of Unix fsync calls" the paper alludes to.
type OS struct {
	dir string
}

// NewOS returns an FS rooted at dir, creating the directory if needed.
func NewOS(dir string) (*OS, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &OS{dir: dir}, nil
}

// Dir reports the backing directory.
func (o *OS) Dir() string { return o.dir }

func (o *OS) path(name string) (string, error) {
	if err := ValidName(name); err != nil {
		return "", err
	}
	return filepath.Join(o.dir, name), nil
}

func mapNotExist(err error) error {
	if errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("%w: %v", ErrNotExist, err)
	}
	return err
}

// Create implements FS.
func (o *OS) Create(name string) (File, error) {
	p, err := o.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &osHandle{f: f, name: name}, nil
}

// Open implements FS.
func (o *OS) Open(name string) (File, error) {
	p, err := o.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(p)
	if err != nil {
		return nil, mapNotExist(err)
	}
	return &osHandle{f: f, name: name}, nil
}

// OpenRW implements FS.
func (o *OS) OpenRW(name string) (File, error) {
	p, err := o.path(name)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(p, os.O_RDWR, 0o644)
	if err != nil {
		return nil, mapNotExist(err)
	}
	return &osHandle{f: f, name: name}, nil
}

// Rename implements FS, fsyncing the directory so the rename is durable.
func (o *OS) Rename(oldname, newname string) error {
	po, err := o.path(oldname)
	if err != nil {
		return err
	}
	pn, err := o.path(newname)
	if err != nil {
		return err
	}
	if err := os.Rename(po, pn); err != nil {
		return mapNotExist(err)
	}
	return o.syncDir()
}

// Remove implements FS.
func (o *OS) Remove(name string) error {
	p, err := o.path(name)
	if err != nil {
		return err
	}
	if err := os.Remove(p); err != nil {
		return mapNotExist(err)
	}
	return o.syncDir()
}

func (o *OS) syncDir() error {
	d, err := os.Open(o.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some platforms cannot fsync a directory; this is best-effort there.
	_ = d.Sync()
	return nil
}

// List implements FS.
func (o *OS) List() ([]string, error) {
	entries, err := os.ReadDir(o.dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if e.Type().IsRegular() {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names, nil
}

// Stat implements FS.
func (o *OS) Stat(name string) (int64, error) {
	p, err := o.path(name)
	if err != nil {
		return 0, err
	}
	info, err := os.Stat(p)
	if err != nil {
		return 0, mapNotExist(err)
	}
	return info.Size(), nil
}

type osHandle struct {
	f    *os.File
	name string
}

func (h *osHandle) Name() string { return h.name }

func (h *osHandle) Size() (int64, error) {
	info, err := h.f.Stat()
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func (h *osHandle) Read(p []byte) (int, error)                { return h.f.Read(p) }
func (h *osHandle) ReadAt(p []byte, off int64) (int, error)   { return h.f.ReadAt(p, off) }
func (h *osHandle) Write(p []byte) (int, error)               { return h.f.Write(p) }
func (h *osHandle) WriteAt(p []byte, off int64) (int, error)  { return h.f.WriteAt(p, off) }
func (h *osHandle) Seek(off int64, whence int) (int64, error) { return h.f.Seek(off, whence) }
func (h *osHandle) Truncate(size int64) error                 { return h.f.Truncate(size) }
func (h *osHandle) Sync() error                               { return h.f.Sync() }
func (h *osHandle) Close() error                              { return h.f.Close() }
