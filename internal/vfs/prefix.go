package vfs

import "strings"

// Prefixed presents the files of fs whose names start with a prefix as a
// directory of their own: every name passed in gains the prefix, and List
// reports only the prefixed files, with the prefix stripped. It lets several
// stores share one flat directory without seeing each other's files. Open
// files report their full (prefixed) name.
type Prefixed struct {
	fs     FS
	prefix string
}

// NewPrefixed views the files of fs named prefix+<name> as <name>.
func NewPrefixed(fs FS, prefix string) *Prefixed { return &Prefixed{fs: fs, prefix: prefix} }

// Create implements FS.
func (p *Prefixed) Create(name string) (File, error) { return p.fs.Create(p.prefix + name) }

// Open implements FS.
func (p *Prefixed) Open(name string) (File, error) { return p.fs.Open(p.prefix + name) }

// OpenRW implements FS.
func (p *Prefixed) OpenRW(name string) (File, error) { return p.fs.OpenRW(p.prefix + name) }

// Rename implements FS.
func (p *Prefixed) Rename(oldname, newname string) error {
	return p.fs.Rename(p.prefix+oldname, p.prefix+newname)
}

// Remove implements FS.
func (p *Prefixed) Remove(name string) error { return p.fs.Remove(p.prefix + name) }

// Stat implements FS.
func (p *Prefixed) Stat(name string) (int64, error) { return p.fs.Stat(p.prefix + name) }

// List implements FS.
func (p *Prefixed) List() ([]string, error) {
	names, err := p.fs.List()
	if err != nil {
		return nil, err
	}
	var out []string
	for _, n := range names {
		if rest, ok := strings.CutPrefix(n, p.prefix); ok {
			out = append(out, rest)
		}
	}
	return out, nil
}
