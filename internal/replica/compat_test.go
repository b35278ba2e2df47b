package replica

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"smalldb/internal/vfs"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/parent_datadir from this build (run at the commit the directory should pin)")

const goldenDir = "testdata/parent_datadir"

// Compat workload: a cap-8 history driven well past full, a full checkpoint,
// two delta checkpoints chained onto it, and a log tail left for replay.
const (
	compatCap     = 8
	compatUpdates = 70
)

// compatName is the name update i binds. The updates between the chained
// checkpoints rebind one name each round, so each delta holds one tree
// operation: the directory was pinned when a tree delta still listed its
// operations in Go's map order, and only a one-operation delta came out
// byte-identical run to run. (A delta is now a merge over label-sorted arcs,
// reproducible at any size — nameserver.TestDeltaCheckpointReproducible —
// but the workload stays as it is so the pinned files keep their meaning.)
func compatName(i int) string {
	switch {
	case i > 50 && i <= 55:
		return "dept0/host50"
	case i > 55 && i <= 60:
		return "dept1/host1"
	}
	return fmt.Sprintf("dept%d/host%d", i%5, i)
}

// compatConfig keeps the chain on disk: on a tree this small a delta rivals
// the base image, which the default ratio would answer with a full image
// and a compaction.
func compatConfig(fs vfs.FS) Config {
	return Config{Name: "a", FS: fs, HistoryCap: compatCap, MaxDeltaRatio: 8, Deterministic: true}
}

func writeCompatDir(t *testing.T, dir string) {
	t.Helper()
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Open(compatConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= compatUpdates; i++ {
		if err := n.Set(compatName(i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if i == 50 || i == 55 || i == 60 {
			if err := n.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

// TestDataDirCompatWithParent pins "no format change" in both directions
// against a data directory written by the parent commit (full history,
// delta chain, log tail; regenerate with -update-golden at that commit).
// Forward: this build opens the parent's directory and recovers the same
// state. Reverse: this build writes the same workload to a byte-identical
// directory, so the parent opens what this build writes.
func TestDataDirCompatWithParent(t *testing.T) {
	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		writeCompatDir(t, goldenDir)
	}
	golden := readDir(t, goldenDir)

	ours := t.TempDir()
	writeCompatDir(t, ours)
	written := readDir(t, ours)
	for name, want := range golden {
		if got, ok := written[name]; !ok {
			t.Errorf("this build wrote no %s", name)
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: this build wrote %d bytes that differ from the parent's %d", name, len(got), len(want))
		}
	}
	for name := range written {
		if _, ok := golden[name]; !ok {
			t.Errorf("this build wrote %s, which the parent did not", name)
		}
	}

	// Open a copy: recovery may repair the directory it opens.
	cp := t.TempDir()
	for name, data := range golden {
		if err := os.WriteFile(filepath.Join(cp, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := vfs.NewOS(cp)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Open(compatConfig(fs))
	if err != nil {
		t.Fatalf("opening the parent's data directory: %v", err)
	}
	defer n.Close()
	st := n.Store().Stats()
	if st.RestartDeltasApplied != 2 || st.RestartEntries != compatUpdates-60 {
		t.Errorf("recovery applied %d deltas and replayed %d entries, want 2 and %d", st.RestartDeltasApplied, st.RestartEntries, compatUpdates-60)
	}
	err = n.Store().View(func(root any) error {
		r := root.(*Root)
		if r.Vector["a"] != compatUpdates || r.HistoryCap != compatCap {
			t.Errorf("recovered vector %v, cap %d", r.Vector, r.HistoryCap)
		}
		if len(r.History) != compatCap {
			t.Fatalf("recovered history holds %d entries, want %d", len(r.History), compatCap)
		}
		for i, e := range r.History {
			if want := uint64(compatUpdates - compatCap + 1 + i); e.Origin != "a" || e.Seq != want {
				t.Errorf("recovered history[%d] = %s/%d, want a/%d", i, e.Origin, e.Seq, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := compatUpdates; i >= 1; i-- {
		want := fmt.Sprintf("v%d", i)
		switch compatName(i) {
		case "dept0/host50":
			want = "v55"
		case "dept1/host1":
			want = "v60"
		}
		if v, err := n.Lookup(compatName(i)); err != nil || v != want {
			t.Fatalf("update %d (%s) after recovery: %q, %v, want %q", i, compatName(i), v, err, want)
		}
	}
	// The window keeps sliding on the recovered root.
	if err := n.Set("after/recovery", "v"); err != nil {
		t.Fatal(err)
	}
}
