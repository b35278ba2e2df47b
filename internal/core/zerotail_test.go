package core

import (
	"fmt"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/obs"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// TestZeroTailIsCleanEnd: the zeros a log file runs ahead of its frames are
// its clean end, whether the store closed or crashed: it reopens with no
// torn tail counted and every entry intact. Damage inside the zeros is what
// a torn flush leaves, so it reads as a torn tail, and Open succeeds.
func TestZeroTailIsCleanEnd(t *testing.T) {
	const n = 20
	reopen := func(t *testing.T, fs vfs.FS, torn bool) *Store {
		t.Helper()
		reg := obs.NewRegistry()
		s := openKV(t, fs, func(c *Config) { c.Obs = reg })
		if st := s.Stats(); st.RestartTornTail != torn || st.RestartEntries != n {
			t.Fatalf("restart: torn tail %v, %d entries; want %v and %d", st.RestartTornTail, st.RestartEntries, torn, n)
		}
		if got := reg.Counter("wal_torn_tails").Value(); got > 1 || (got == 1) != torn {
			t.Fatalf("wal_torn_tails = %d with a torn tail %v", got, torn)
		}
		for i := range n {
			if v, ok := get(t, s, fmt.Sprintf("k%d", i)); !ok || v != "v" {
				t.Fatalf("k%d = %q, %v after the restart", i, v, ok)
			}
		}
		return s
	}
	for _, crash := range []bool{false, true} {
		t.Run(fmt.Sprintf("crash=%v", crash), func(t *testing.T) {
			fs := vfs.NewMem(1)
			s := openKV(t, fs)
			for i := range n {
				put(t, s, fmt.Sprintf("k%d", i), "v")
			}
			end := frameEnd(t, fs, s)
			if crash {
				fs.Crash()
			} else if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if size, _ := fs.Stat(checkpoint.LogName(1)); size <= end {
				t.Fatalf("log file of %d bytes holds no zeros past its frames' %d", size, end)
			}
			reopen(t, fs, false).Close()

			fs.Damage(checkpoint.LogName(1), end+100, 8)
			s = reopen(t, fs, true)
			put(t, s, "after", "v")
			s.Close()
			if s = openKV(t, fs); s.Stats().RestartEntries != n+1 {
				t.Errorf("after repairing the damaged zeros: %d entries, want %d", s.Stats().RestartEntries, n+1)
			}
			s.Close()
		})
	}
}

// TestFlipLeavesSupersededLog: the zeros cost the checkpoint's flip no fs
// op. No op of a checkpoint touches the superseded log, which keeps its
// zeros until retention removes it and still replays clean.
func TestFlipLeavesSupersededLog(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never, TraceCap: 1024})
	s := openKV(t, ffs, func(c *Config) { c.Retain = 1 })
	defer s.Close()
	for i := range 10 {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	old := checkpoint.LogName(1)
	size, _ := ffs.Stat(old)
	from := ffs.OpCount()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, r := range ffs.Trace() {
		if r.Index >= from && strings.Contains(r.Name, old) {
			t.Errorf("the checkpoint touched the superseded log: %v", r)
		}
	}
	if after, _ := ffs.Stat(old); after != size {
		t.Errorf("superseded log went from %d to %d bytes", size, after)
	}
	var n int
	if err := s.History(true, func(uint64, Update) error { n++; return nil }); err != nil || n != 10 {
		t.Errorf("history over the superseded log: %d entries, %v", n, err)
	}
}
