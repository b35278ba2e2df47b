// Package vfs is the file-system abstraction under the checkpoint and log
// machinery. The paper stores all durable state as a handful of files in a
// single directory ("We use a single directory for our disk structures") and
// relies on only a few primitives: create, write in place, atomic rename,
// remove, and fsync. This package captures exactly those primitives in the FS
// interface and provides two implementations:
//
//   - OS: a directory on the real file system.
//   - Mem: an in-memory file system with crash simulation. Data written but
//     not Synced is lost at Crash(); a CrashTorn() additionally makes a
//     page-aligned prefix of unsynced data durable, modelling a machine
//     halting midway through flushing a multi-page write. Reads of
//     deliberately damaged ranges fail, modelling the paper's "hard"
//     failures ("some data in the disk structures becomes unreadable") and
//     its disk hardware property that "a partially written page will report
//     an error when it is read".
//
// The reliability experiments (E9, E13) run entirely against Mem, crashing
// the store at arbitrary points and checking the recovery invariants.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"strings"
)

// ErrNotExist is returned when a named file does not exist.
var ErrNotExist = errors.New("vfs: file does not exist")

// ErrExist is returned by Rename when the target would clobber in a mode
// that forbids it (not used by the default rename, which replaces).
var ErrExist = errors.New("vfs: file exists")

// ErrDamaged is returned by reads that cover a damaged (hard-failed) range
// of a Mem file.
var ErrDamaged = errors.New("vfs: unreadable data (simulated media failure)")

// File is an open file. Write appends at the current position; WriteAt and
// ReadAt address absolute offsets (used by the page-oriented baseline).
// Sync makes all data written so far durable across Crash().
type File interface {
	io.Reader
	io.Writer
	io.Closer
	io.ReaderAt
	io.WriterAt
	io.Seeker
	// Sync flushes written data to durable storage; it is the commit
	// point of every update in the paper's design.
	Sync() error
	// Truncate changes the file's size. Recovery uses it to discard a
	// partially written tail log entry.
	Truncate(size int64) error
	// Name reports the name the file was opened under.
	Name() string
	// Size reports the current size of the file.
	Size() (int64, error)
}

// FS is a flat, single-directory file system: exactly what the paper's
// checkpoint/log protocol needs.
type FS interface {
	// Create opens a file for read/write, truncating it if it exists.
	Create(name string) (File, error)
	// Open opens an existing file read-only.
	Open(name string) (File, error)
	// OpenRW opens an existing file for read/write without truncation.
	OpenRW(name string) (File, error)
	// Rename atomically renames oldname to newname, replacing any
	// existing newname. The rename is durable when it returns.
	Rename(oldname, newname string) error
	// Remove deletes a file. Removing a non-existent file is an error.
	Remove(name string) error
	// List returns the names of all files, sorted.
	List() ([]string, error)
	// Stat reports a file's size.
	Stat(name string) (int64, error)
}

// ValidName reports whether name is acceptable: non-empty, no path
// separators, no NULs. Both implementations enforce it.
func ValidName(name string) error {
	if name == "" {
		return fmt.Errorf("vfs: empty file name")
	}
	if strings.ContainsAny(name, "/\\\x00") {
		return fmt.Errorf("vfs: invalid file name %q", name)
	}
	if name == "." || name == ".." {
		return fmt.Errorf("vfs: invalid file name %q", name)
	}
	return nil
}

// ReadFile reads the entire named file.
func ReadFile(fs FS, name string) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Size()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, size)
	if _, err := io.ReadFull(f, buf); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return nil, err
	}
	return buf, nil
}

// WriteFile writes data to the named file, creating or truncating it, and
// syncs it before closing.
func WriteFile(fs FS, name string, data []byte) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Exists reports whether the named file exists.
func Exists(fs FS, name string) bool {
	_, err := fs.Stat(name)
	return err == nil
}
