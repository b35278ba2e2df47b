package replica

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/core"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
	"smalldb/internal/wal"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/parent_datadir from this build (run at the commit the directory should pin)")

const goldenDir = "testdata/parent_datadir"

// Compat workload: a full checkpoint, two delta checkpoints chained onto it,
// and a log tail left for replay. The parent's root also kept a history
// window of the last 8 updates, in every image and delta it wrote.
const compatUpdates = 70

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
	return Config{Name: "a", FS: fs, MaxDeltaRatio: 8}
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
	if err := s.History(true, func(seq uint64, u core.Update) error {
		return appendEntry(&out, seq, u)
	}); err != nil {
		t.Fatal(err)
	}
	return strings.Join(out, "\n")
}

// logHistory is historyOf read straight from one log file of self-describing
// entries, with no store open: the parent's log, before Open re-heads it.
func logHistory(t *testing.T, fs vfs.FS, name string) string {
	t.Helper()
	var out []string
	replayLog(t, fs, name, func(seq uint64, p []byte) error {
		var rec struct{ U core.Update } // a core log record, matched by field name
		if err := pickle.Unmarshal(p, &rec); err != nil {
			return err
		}
		return appendEntry(&out, seq, rec.U)
	})
	return strings.Join(out, "\n")
}

// imageOf decodes a checkpoint image or delta into the fields this build
// keeps and pickles those again: images of the two builds compare field for
// field, the parent's history window skipped on decode.
func imageOf(t *testing.T, name string, data []byte) []byte {
	t.Helper()
	var v any = &struct {
		NextSeq uint64
		Root    any
	}{}
	if strings.HasSuffix(name, ".d") {
		v = &struct {
			Version, Parent, FromSeq, NextSeq uint64
			Subtrees                          int
			Delta                             any
		}{}
	}
	if err := pickle.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	out, err := pickle.Marshal(v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return out
}

func appendEntry(out *[]string, seq uint64, u core.Update) error {
	b, err := pickle.Marshal(u)
	*out = append(*out, fmt.Sprintf("%d %x", seq, b))
	return err
}

// replayLog hands fn every entry of the named log file and reports whether
// the file has a head.
func replayLog(t *testing.T, fs vfs.FS, name string, fn func(seq uint64, payload []byte) error) (head bool) {
	t.Helper()
	res, err := wal.Replay(fs, name, 0, wal.ReplayOptions{}, fn)
	if err != nil {
		t.Fatal(err)
	}
	return res.Head != nil
}

// logForms lists the form of each entry the named log file holds: 'c' for
// self-describing, 't' for table-relative, after 'h' when it has a head.
// Every log this build writes reads 'h' followed by 't's only.
func logForms(t *testing.T, fs vfs.FS, name string) string {
	t.Helper()
	var out []byte
	head := replayLog(t, fs, name, func(_ uint64, p []byte) error {
		form := byte('c')
		if pickle.IsTableRelative(p) {
			form = 't'
		}
		out = append(out, form)
		return nil
	})
	if head {
		return "h" + string(out)
	}
	return string(out)
}

// TestDataDirCompatWithParent pins the format in both directions against a
// data directory written before log files had heads, while the root kept a
// history window (delta chain, log tail; regenerate with -update-golden at
// the commit the directory should pin). Forward: this build opens that
// directory, recovers the same state and re-heads it, moving to a version
// whose log carries this build's table. Reverse: this build writes the same
// workload to a byte-identical version file and to checkpoint and delta
// files that hold the parent's, field for field, less the window; its log
// begins with a type table and pickles entries against it, and holds, entry
// for entry, the same updates as the parent's log read before Open re-heads
// it.
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
		got, ok := written[name]
		switch {
		case !ok:
			t.Errorf("this build wrote no %s", name)
		case strings.HasPrefix(name, "logfile"):
		case strings.HasPrefix(name, "checkpoint"):
			if len(got) >= len(want) || !bytes.Equal(imageOf(t, name, got), imageOf(t, name, want)) {
				t.Errorf("%s: this build wrote %d bytes that do not hold the parent's %d less its history window", name, len(got), len(want))
			}
		case !bytes.Equal(got, want):
			t.Errorf("%s: this build wrote %d bytes that differ from the parent's %d", name, len(got), len(want))
		}
	}
	for name := range written {
		if _, ok := golden[name]; !ok {
			t.Errorf("this build wrote %s, which the parent did not", name)
		}
	}

	if got, want := logForms(t, copyDir(t, written), "logfile4"), "h"+strings.Repeat("t", compatUpdates-60); got != want {
		t.Errorf("this build's log holds %q, want %q", got, want)
	}
	ourNode, err := Open(compatConfig(copyDir(t, written)))
	if err != nil {
		t.Fatal(err)
	}
	ourLog := historyOf(t, ourNode.Store())
	if v := ourNode.Store().Version(); v != 4 {
		t.Errorf("this build's directory opened at version %d, want 4: nothing to re-head", v)
	}
	ourNode.Close()

	// Open a copy: recovery may repair the directory it opens, and Open
	// re-heads it.
	fs := copyDir(t, golden)
	if parentLog := logHistory(t, fs, "logfile4"); ourLog != parentLog || strings.Count(ourLog, "\n") != compatUpdates-61 {
		t.Errorf("this build's log holds the updates\n%s\nthe parent's\n%s", ourLog, parentLog)
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
	if v := n.Store().Version(); v != 5 || st.Checkpoints != 1 || logForms(t, fs, "logfile5") != "h" {
		t.Errorf("Open left version %d after %d checkpoints, want one re-head to version 5 with an empty log", v, st.Checkpoints)
	}
	err = n.Store().View(func(root any) error {
		r := root.(*Root)
		if r.Vector["a"] != compatUpdates || r.Clock != compatUpdates {
			t.Errorf("recovered vector %v, clock %d", r.Vector, r.Clock)
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
	// The recovered root takes the next update.
	if err := n.Set("after/recovery", "v"); err != nil {
		t.Fatal(err)
	}
	if got := logForms(t, fs, "logfile5"); got != "ht" {
		t.Errorf("the re-headed log holds %q, want a head and one table-relative entry", got)
	}
}

// TestReheadFailureKeepsParentVersion: when Open's re-head checkpoint fails,
// Open fails with its error and the parent's version stays current,
// untouched; the next Open re-heads.
func TestReheadFailureKeepsParentVersion(t *testing.T) {
	mem := vfs.NewMem(1)
	for name, data := range readDir(t, goldenDir) {
		if err := vfs.WriteFile(mem, name, data); err != nil {
			t.Fatal(err)
		}
	}
	ffs := faultfs.New(mem, faultfs.Options{CrashAt: faultfs.Never})
	boom := errors.New("checkpoint image write failed")
	ffs.FailName(checkpoint.CheckpointName(5), boom) // a full image or a delta
	if n, err := Open(compatConfig(ffs)); !errors.Is(err, boom) {
		if err == nil {
			n.Close()
		}
		t.Fatalf("Open with the re-head failing = %v, want %v", err, boom)
	}
	if v, err := vfs.ReadFile(ffs, "version"); err != nil || string(v) != "4\n" {
		t.Errorf("version file after the failed re-head: %q, %v", v, err)
	}
	if got := logForms(t, ffs, "logfile4"); got != strings.Repeat("c", compatUpdates-60) {
		t.Errorf("the parent's log after the failed re-head holds %q", got)
	}
	for _, name := range []string{checkpoint.CheckpointName(5), checkpoint.DeltaName(5), checkpoint.LogName(5)} {
		if vfs.Exists(ffs, name) {
			t.Errorf("the failed re-head left %s", name)
		}
	}

	ffs.ClearFaults()
	n, err := Open(compatConfig(ffs))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if v := n.Store().Version(); v != 5 || logForms(t, ffs, "logfile5") != "h" {
		t.Errorf("second Open at version %d, want a re-head to 5", v)
	}
	if v, err := n.Lookup(compatName(compatUpdates)); err != nil || v != fmt.Sprintf("v%d", compatUpdates) {
		t.Errorf("after the re-head: %q, %v", v, err)
	}
}

// TestMixedFormatLogs: the parent's directory — a log without a head, its
// entries self-describing — keeps working across the format change. Open
// re-heads it, and from then on every log file, a checkpoint's new log with
// the entries committed inside its window included, holds a head and
// table-relative entries only. The reopened tree matches the model.
func TestMixedFormatLogs(t *testing.T) {
	golden := readDir(t, goldenDir)
	fs := copyDir(t, golden)
	model := map[string]string{}
	for i := 1; i <= compatUpdates; i++ {
		model[compatName(i)] = fmt.Sprintf("v%d", i)
	}
	if got := logForms(t, fs, "logfile4"); got != strings.Repeat("c", compatUpdates-60) {
		t.Errorf("the parent's log holds %q", got)
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
	if vfs.Exists(fs, "logfile4") {
		t.Error("the parent's log outlived Open's re-head")
	}
	for i := range 3 {
		set(fmt.Sprintf("mixed/before%d", i), "b")
	}
	if got := logForms(t, fs, "logfile5"); got != "httt" {
		t.Errorf("the re-headed log after 3 updates holds %q", got)
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
	if got := logForms(t, fs, "logfile6"); got != "httttt" {
		t.Errorf("the checkpoint's new log holds %q, want a head, then table-relative entries only", got)
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
