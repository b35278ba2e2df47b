package replica

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
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
// the base image, which the default ratio would answer with a full image.
func compatConfig(fs vfs.FS) Config {
	return Config{Name: "a", FS: fs, HistoryCap: compatCap, MaxDeltaRatio: 8}
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

// copyDir writes files into a fresh directory and returns it as an FS.
func copyDir(t *testing.T, files map[string][]byte) vfs.FS {
	t.Helper()
	dir := t.TempDir()
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fs, err := vfs.NewOS(dir)
	if err != nil {
		t.Fatal(err)
	}
	return fs
}

// historyOf lists the updates a store's logs hold, each with its sequence
// and pickled self-describing: logs of either form compare entry for entry.
func historyOf(t *testing.T, s *core.Store) string {
	t.Helper()
	var out []string
	if err := s.History(func(seq uint64, u core.Update) error {
		b, err := pickle.Marshal(u)
		out = append(out, fmt.Sprintf("%d %x", seq, b))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return strings.Join(out, "\n")
}

// TestDataDirCompatWithParent pins the format in both directions against a
// data directory written before log files had heads (full history, delta
// chain, log tail; regenerate with -update-golden at the commit the directory
// should pin). Forward: this build opens that directory and recovers the same
// state. Reverse: this build writes the same workload to byte-identical
// checkpoint, delta and version files; its log begins with a type table and
// pickles entries against it, and holds, entry for entry, the same updates.
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
		} else if !bytes.Equal(got, want) && !strings.HasPrefix(name, "logfile") {
			t.Errorf("%s: this build wrote %d bytes that differ from the parent's %d", name, len(got), len(want))
		}
	}
	for name := range written {
		if _, ok := golden[name]; !ok {
			t.Errorf("this build wrote %s, which the parent did not", name)
		}
	}

	ourNode, err := Open(compatConfig(copyDir(t, written)))
	if err != nil {
		t.Fatal(err)
	}
	ourLog := historyOf(t, ourNode.Store())
	ourNode.Close()

	// Open a copy: recovery may repair the directory it opens.
	n, err := Open(compatConfig(copyDir(t, golden)))
	if err != nil {
		t.Fatalf("opening the parent's data directory: %v", err)
	}
	defer n.Close()
	if parentLog := historyOf(t, n.Store()); ourLog != parentLog || strings.Count(ourLog, "\n") != compatUpdates-61 {
		t.Errorf("this build's log holds the updates\n%s\nthe parent's\n%s", ourLog, parentLog)
	}
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

// TestMixedFormatLogs: the parent's directory — a log without a head — keeps
// working across the format change. Updates appended to the headless log are
// self-describing; a checkpoint's tail spans that log and a new one that
// begins with a head, so the tail's entries are self-describing in both;
// after the switch entries are table-relative. The reopened tree
// matches the model.
func TestMixedFormatLogs(t *testing.T) {
	golden := readDir(t, goldenDir)
	fs := copyDir(t, golden)
	model := map[string]string{}
	for i := 1; i <= compatUpdates; i++ {
		model[compatName(i)] = fmt.Sprintf("v%d", i)
	}
	n, err := Open(compatConfig(fs))
	if err != nil {
		t.Fatal(err)
	}
	set := func(name, v string) {
		if err := n.Set(name, v); err != nil {
			t.Fatal(err)
		}
		model[name] = v
	}
	// forms lists the form of each entry a log file holds: 'c' for
	// self-describing, 't' for table-relative, after 'h' when it has a head.
	forms := func(name string) string {
		first, _, err := wal.FirstSeq(fs, name)
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		res, err := wal.Replay(fs, name, first, wal.ReplayOptions{}, func(_ uint64, p []byte) error {
			form := byte('c')
			if pickle.IsTableRelative(p) {
				form = 't'
			}
			out = append(out, form)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Head != nil {
			return "h" + string(out)
		}
		return string(out)
	}
	for i := range 3 {
		set(fmt.Sprintf("mixed/before%d", i), "b")
	}
	if got := forms("logfile4"); got != strings.Repeat("c", compatUpdates-60+3) {
		t.Errorf("the parent's log after 3 more updates holds %q", got)
	}
	n.Store().SetCheckpointStageHook(func(stage core.CheckpointStage) {
		if stage == core.StageTailOpen {
			set("mixed/window0", "w")
			set("mixed/window1", "w")
		}
	})
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	n.Store().SetCheckpointStageHook(nil)
	for i := range 3 {
		set(fmt.Sprintf("mixed/after%d", i), "a")
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if got := forms("logfile5"); got != "hccttt" {
		t.Errorf("the checkpoint's new log holds %q, want a head, the window self-describing, then table-relative", got)
	}
	if n, err = Open(compatConfig(fs)); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for name, want := range model {
		if got, err := n.Lookup(name); err != nil || got != want {
			t.Errorf("%s = %q, %v; want %q", name, got, err, want)
		}
	}
}
