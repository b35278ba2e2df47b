package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"smalldb/internal/replica"
	"smalldb/internal/vfs"
)

// TestDumpsEveryFile runs every dump over every file of two directories:
// the replica package's pinned parent directory, whose images and deltas
// still carry the fields of the history window the replica root kept, and
// one this build writes. A dump that fails exits the test binary; one that
// cannot decode an entry says so in its output, which the test reads.
func TestDumpsEveryFile(t *testing.T) {
	ours := t.TempDir()
	fs, err := vfs.NewOS(ours)
	if err != nil {
		t.Fatal(err)
	}
	n, err := replica.Open(replica.Config{Name: "a", FS: fs, MaxDeltaRatio: 8})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := n.Set(fmt.Sprintf("dept%d/host%d", i%3, i), "v"); err != nil {
			t.Fatal(err)
		}
		if i == 9 || i == 19 {
			if err := n.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct{ dir, want string }{
		{"../../internal/replica/testdata/parent_datadir", "HistoryAppended"},
		{ours, "RootDelta"},
	} {
		fs, err := vfs.NewOS(tc.dir)
		if err != nil {
			t.Fatal(err)
		}
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		out := stdoutOf(t, func() {
			summarize(fs)
			statsAll(fs)
			for _, name := range names {
				if v, err := strconv.ParseUint(strings.TrimPrefix(name, "logfile"), 10, 64); err == nil {
					dumpLogFile(fs, name, 0)
					statsLogFile(fs, name)
				} else if v, err = strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint"), ".d"), 10, 64); err == nil {
					dumpCheckpoint(fs, v)
				}
			}
		})
		if strings.Contains(out, "undecodable") || strings.Count(out, "\nentry ") < 10 || !strings.Contains(out, tc.want) {
			t.Errorf("%s: the dumps read\n%s", tc.dir, out)
		}
	}
}

// stdoutOf runs fn and returns what it printed.
func stdoutOf(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	defer func() { os.Stdout = saved }()
	fn()
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}
