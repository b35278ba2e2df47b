package smalldb_test

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

var updatePutGolden = flag.Bool("update-putsubtree-golden", false, "rewrite testdata/putsubtree_logfile from this build (run at the commit whose log format the file should pin)")

// putGolden is the log a store writes for putWorkload, as written by the
// commit before a node's children moved from a map to sorted arcs.
const putGolden = "testdata/putsubtree_logfile"

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

// TestPutSubtreeLoggedAsApplied: core pickles an update after Verify and
// before Apply, so a PutSubtree given in map form must be folded into sorted
// arcs by Verify — folding only in Apply would log one thing and apply
// another. The store is closed with the puts in the log and no checkpoint
// over them; replay must rebuild the tree that was in memory, and the log
// itself must be, byte for byte, what the previous (map-based) build wrote
// for the same subtrees.
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
	if *updatePutGolden {
		if err := os.WriteFile(putGolden, logged, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", putGolden, len(logged))
	}
	golden, err := os.ReadFile(putGolden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logged, golden) {
		t.Errorf("the log of the map-form puts differs from what the map-based build wrote (%d vs %d bytes)", len(logged), len(golden))
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
