package smalldb_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

var (
	updatePutGolden   = flag.Bool("update-putsubtree-golden", false, "rewrite testdata/putsubtree_logfile from this build (run at the commit whose log format the file should pin)")
	updateTypedGolden = flag.Bool("update-typed-golden", false, "rewrite testdata/typed_logfile from this build (run at the commit whose log format the file should pin)")
)

// putGolden is the log a store writes for putWorkload, as written by the
// commit before a node's children moved from a map to sorted arcs: its
// entries are self-describing. typedGolden is the same workload's log as
// written once log files gained a type-table head.
const (
	putGolden   = "testdata/putsubtree_logfile"
	typedGolden = "testdata/typed_logfile"
)

// putWorkload commits, straight through the core store — no Server.Put in
// the way — a subtree spelled with the input-only Children maps (labels
// deliberately not in order, an empty directory, a bare leaf), a Set beneath
// it, and a second Put that replaces part of it.
func putWorkload(t *testing.T, srv *nameserver.Server) {
	t.Helper()
	leaf := func(v string) *nameserver.Node { return &nameserver.Node{Value: v, HasValue: true} }
	sub := &nameserver.Node{Value: "root of import", HasValue: true, Children: map[string]*nameserver.Node{
		"zeta":  leaf("26"),
		"alpha": {Children: map[string]*nameserver.Node{"two": leaf("2"), "one": leaf("1"), "three": {}}},
		"mid":   {Children: map[string]*nameserver.Node{}},
		"beta":  leaf("2"),
	}}
	for _, u := range []interface {
		Verify(any) error
		Apply(any) error
	}{
		&nameserver.PutSubtree{Path: []string{"imported", "tree"}, Subtree: sub},
		&nameserver.SetValue{Path: []string{"imported", "tree", "mid", "later"}, Value: "set after the put"},
		&nameserver.PutSubtree{Path: []string{"imported", "tree", "alpha"}, Subtree: &nameserver.Node{
			Children: map[string]*nameserver.Node{"y": leaf("y"), "x": leaf("x")},
		}},
	} {
		if err := srv.Store().Apply(u); err != nil {
			t.Fatalf("Apply %T: %v", u, err)
		}
	}
	// The caller's subtree is still the caller's, still in the form given.
	if sub.Children["alpha"].Children["one"].Value != "1" || sub.Arcs != nil {
		t.Fatal("committing a PutSubtree rewrote the caller's subtree")
	}
}

func treeImage(t *testing.T, srv *nameserver.Server) []byte {
	t.Helper()
	var image []byte
	err := srv.Store().View(func(root any) (err error) {
		image, err = pickle.Marshal(root)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return image
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

// logHead is the head frame payload of the log file log, which must parse
// as a type table.
func logHead(t *testing.T, log []byte) []byte {
	t.Helper()
	fs := vfs.NewMem(1)
	if err := vfs.WriteFile(fs, "log", log); err != nil {
		t.Fatal(err)
	}
	head, err := wal.ReadHead(fs, "log")
	if err == nil {
		_, err = pickle.ParseTable(head)
	}
	if err != nil || head == nil {
		t.Fatalf("log head %q: %v", head, err)
	}
	return head
}

// openOverLog opens a fresh store's first files with log in place of its
// own log file.
func openOverLog(t *testing.T, log []byte) *nameserver.Server {
	t.Helper()
	fs := vfs.NewMem(1)
	if s, err := nameserver.Open(nameserver.Config{FS: fs}); err != nil {
		t.Fatal(err)
	} else if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "logfile1", log); err != nil {
		t.Fatal(err)
	}
	srv, err := nameserver.Open(nameserver.Config{FS: fs})
	if err != nil {
		t.Fatalf("open over a golden log: %v", err)
	}
	return srv
}

// TestPutSubtreeLoggedAsApplied: core pickles an update after Verify and
// before Apply, so a PutSubtree given in map form must be folded into sorted
// arcs by Verify — folding only in Apply would log one thing and apply
// another. The store is closed with the puts in the log and no checkpoint
// over them; replay must rebuild the tree that was in memory, and the log
// must hold, entry for entry, the updates the previous (map-based) build
// logged for the same subtrees. Its bytes are typedGolden's — a type-table
// head, then entries pickled against it — while the binary registers the
// update types that wrote typedGolden.
func TestPutSubtreeLoggedAsApplied(t *testing.T) {
	fs := vfs.NewMem(1)
	srv, err := nameserver.Open(nameserver.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	putWorkload(t, srv)
	before := treeImage(t, srv)
	var names []string
	if err := srv.Enumerate("imported", func(name, _ string) error { names = append(names, name); return nil }); err != nil {
		t.Fatal(err)
	}
	want := "imported/tree imported/tree/alpha/x imported/tree/alpha/y imported/tree/beta imported/tree/mid/later imported/tree/zeta"
	if got := strings.Join(names, " "); got != want {
		t.Fatalf("before the restart the tree holds\n %s\nwant\n %s", got, want)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	logged, err := vfs.ReadFile(fs, "logfile1")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct {
		name   string
		update bool
	}{{putGolden, *updatePutGolden}, {typedGolden, *updateTypedGolden}} {
		if g.update {
			if err := os.WriteFile(g.name, logged, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("rewrote %s (%d bytes)", g.name, len(logged))
		}
	}
	typed, err := os.ReadFile(typedGolden)
	if err != nil {
		t.Fatal(err)
	}
	// The head lists every update type the binary registers, and entries
	// refer to its ids: the bytes are pinned while the registry is the one
	// that wrote the golden. Under another, the history comparison below
	// still pins the entries, update for update.
	if ours, theirs := logHead(t, logged), logHead(t, typed); !bytes.Equal(ours, theirs) {
		t.Logf("this binary's log head differs from %s's (%d vs %d bytes): registered update types differ", typedGolden, len(ours), len(theirs))
	} else if !bytes.Equal(logged, typed) {
		t.Errorf("this build's log of the map-form puts differs from %s (%d vs %d bytes)", typedGolden, len(logged), len(typed))
	}

	srv, err = nameserver.Open(nameserver.Config{FS: fs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer srv.Close()
	if st := srv.Stats(); st.RestartEntries != 3 {
		t.Fatalf("restart replayed %d entries, want the 3 in the log", st.RestartEntries)
	}
	if after := treeImage(t, srv); !bytes.Equal(after, before) {
		t.Fatal("the tree replayed from the log is not the tree that was in memory: what was logged is not what was applied")
	}
	golden, err := os.ReadFile(putGolden)
	if err != nil {
		t.Fatal(err)
	}
	old := openOverLog(t, golden)
	defer old.Close()
	if ours, theirs := historyOf(t, srv.Store()), historyOf(t, old.Store()); ours != theirs || strings.Count(ours, "\n") != 2 {
		t.Errorf("the log of the map-form puts holds\n%s\nthe map-based build's\n%s", ours, theirs)
	}
}

// TestTypedLogGoldenReplays: the log a build with type-table heads wrote
// replays, in this build, to the tree this build makes of the same workload.
// (TestPutSubtreeLoggedAsApplied pins the other direction: this build writes
// it byte for byte.)
func TestTypedLogGoldenReplays(t *testing.T) {
	typed, err := os.ReadFile(typedGolden)
	if err != nil {
		t.Fatal(err)
	}
	live, err := nameserver.Open(nameserver.Config{FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	putWorkload(t, live)
	srv := openOverLog(t, typed)
	defer srv.Close()
	if st := srv.Stats(); st.RestartEntries != 3 {
		t.Fatalf("replayed %d entries of %s, want 3", st.RestartEntries, typedGolden)
	}
	if !bytes.Equal(treeImage(t, srv), treeImage(t, live)) {
		t.Fatalf("%s replays to a different tree", typedGolden)
	}
}

// TestPutSubtreeGoldenReplays: the log the map-based build wrote replays, in
// this build, to the tree this build makes of the same workload.
func TestPutSubtreeGoldenReplays(t *testing.T) {
	golden, err := os.ReadFile(putGolden)
	if err != nil {
		t.Fatal(err)
	}
	live, err := nameserver.Open(nameserver.Config{FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	putWorkload(t, live)

	// A fresh store's first files, with the golden log in place of its own.
	fs := vfs.NewMem(1)
	if s, err := nameserver.Open(nameserver.Config{FS: fs}); err != nil {
		t.Fatal(err)
	} else if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, "logfile1", golden); err != nil {
		t.Fatal(err)
	}
	old, err := nameserver.Open(nameserver.Config{FS: fs})
	if err != nil {
		t.Fatalf("open over the golden log: %v", err)
	}
	defer old.Close()
	if !bytes.Equal(treeImage(t, old), treeImage(t, live)) {
		t.Fatal("the map-based build's log replays to a different tree")
	}
}
