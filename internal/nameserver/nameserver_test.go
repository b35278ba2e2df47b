package nameserver

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

func open(t *testing.T, fs vfs.FS) *Server {
	t.Helper()
	s, err := Open(Config{FS: fs, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSetLookup(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	if err := s.Set("net/hosts/gva", "16.4.0.1"); err != nil {
		t.Fatal(err)
	}
	v, err := s.Lookup("net/hosts/gva")
	if err != nil || v != "16.4.0.1" {
		t.Fatalf("got %q, %v", v, err)
	}
	// Intermediate nodes exist but carry no value.
	if _, err := s.Lookup("net/hosts"); !errors.Is(err, ErrNoValue) {
		t.Errorf("intermediate: %v", err)
	}
	if _, err := s.Lookup("net/absent"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing: %v", err)
	}
}

func TestOverwrite(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	s.Set("k", "v1")
	s.Set("k", "v2")
	if v, _ := s.Lookup("k"); v != "v2" {
		t.Errorf("got %q", v)
	}
}

func TestList(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	for _, n := range []string{"srv/c", "srv/a", "srv/b"} {
		s.Set(n, "x")
	}
	got, err := s.List("srv")
	if err != nil || !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("got %v, %v", got, err)
	}
	if _, err := s.List("nothere"); !errors.Is(err, ErrNotFound) {
		t.Errorf("got %v", err)
	}
	// Root listing.
	top, err := s.List("")
	if err != nil || !reflect.DeepEqual(top, []string{"srv"}) {
		t.Errorf("root list %v, %v", top, err)
	}
}

func TestDelete(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	s.Set("a/b/c", "1")
	s.Set("a/b/d", "2")
	s.Set("a/e", "3")
	if err := s.Delete("a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Lookup("a/b/c"); !errors.Is(err, ErrNotFound) {
		t.Error("subtree survived delete")
	}
	if v, _ := s.Lookup("a/e"); v != "3" {
		t.Error("sibling lost")
	}
	if err := s.Delete("a/b"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: %v", err)
	}
	if err := s.Delete(""); err == nil {
		t.Error("deleted the root")
	}
}

func TestEnumerate(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	s.Set("u/amy/uid", "1001")
	s.Set("u/amy/home", "/home/amy")
	s.Set("u/bob/uid", "1002")
	var got []string
	err := s.Enumerate("u", func(name, value string) error {
		got = append(got, name+"="+value)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"u/amy/home=/home/amy", "u/amy/uid=1001", "u/bob/uid=1002"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("got %v", got)
	}
	// Early stop.
	n := 0
	stop := errors.New("stop")
	err = s.Enumerate("", func(string, string) error {
		n++
		return stop
	})
	if !errors.Is(err, stop) || n != 1 {
		t.Errorf("early stop: n=%d err=%v", n, err)
	}
}

func TestPutSubtree(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	sub := &Node{Children: map[string]*Node{
		"x": {Value: "1", HasValue: true},
		"y": {Children: map[string]*Node{"z": {Value: "2", HasValue: true}}},
	}}
	if err := s.Put("imported", sub); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Lookup("imported/x"); v != "1" {
		t.Error("x lost")
	}
	if v, _ := s.Lookup("imported/y/z"); v != "2" {
		t.Error("z lost")
	}
	// Mutating the caller's subtree afterwards must not affect the DB.
	sub.Children["x"].Value = "mutated"
	if v, _ := s.Lookup("imported/x"); v != "1" {
		t.Error("subtree aliased into database")
	}
}

// TestPutRefusesSharedSubtree: a subtree that reaches one node twice is
// refused by Verify, so nothing is logged. A cycle used to recurse in
// canonical until the process died of a stack overflow.
func TestPutRefusesSharedSubtree(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	cycle := &Node{}
	cycle.Arcs = []Arc{{Label: "x", Child: cycle}}
	viaChildren := &Node{}
	viaChildren.Children = map[string]*Node{"y": {Children: map[string]*Node{"z": viaChildren}}}
	leaf := &Node{Value: "v", HasValue: true}
	shared := &Node{Arcs: []Arc{{Label: "p", Child: leaf}, {Label: "q", Child: &Node{Children: map[string]*Node{"r": leaf}}}}}
	for name, sub := range map[string]*Node{"cycle": cycle, "cycle-through-children": viaChildren, "shared": shared} {
		if err := s.Put("bad/"+name, sub); !errors.Is(err, ErrSharedSubtree) {
			t.Errorf("%s: Put = %v, want ErrSharedSubtree", name, err)
		}
	}
	if st := s.Stats(); st.LogEntries != 0 || st.AppliedSeq != 0 {
		t.Fatalf("a refused Put reached the log: %d entries, applied seq %d", st.LogEntries, st.AppliedSeq)
	}
	if _, err := s.Lookup("bad"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("a refused Put changed the tree: %v", err)
	}
}

// TestReplayedSharedSubtree: a log written before a pair owned its value may
// hold a PutSubtree whose arcs reach one node twice, spelled with a
// reference. Replay refuses that entry with a typed error naming the log
// file and the entry's sequence number; it does not copy the node for each
// arc. A cyclic subtree, which such a log could spell too, no longer
// pickles, so it is never logged.
func TestReplayedSharedSubtree(t *testing.T) {
	fs := vfs.NewMem(1)
	s := open(t, fs)
	if err := s.Set("before", "v"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("d", &Node{Arcs: []Arc{{Label: "p", Child: &Node{Value: "v", HasValue: true}}, {Label: "q"}}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Rewrite the log with the Put's arc q respelled as a reference to p's node.
	const name = "logfile1"
	head, err := wal.ReadHead(fs, name)
	if err != nil {
		t.Fatal(err)
	}
	var entries [][]byte
	var first, shared uint64
	if _, err := wal.Replay(fs, name, 0, wal.ReplayOptions{}, func(seq uint64, payload []byte) error {
		if first == 0 {
			first = seq
		}
		if bytes.Contains(payload, []byte("\x0a\x01q\x02")) {
			payload, shared = shareArc(payload, "p", "q"), seq
		}
		entries = append(entries, bytes.Clone(payload))
		return nil
	}); err != nil || shared == 0 {
		t.Fatalf("replaying the log: %v, the Put's entry found: %v", err, shared != 0)
	}
	// Replayed to nothing, the log is rewritten holding only its head.
	l, err := wal.Open(fs, name, wal.ReplayResult{NextSeq: first}, wal.Options{Head: head})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = Open(Config{FS: fs, Retain: 1})
	var pe *pickle.Error
	if want := fmt.Sprintf("%s: log entry %d", name, shared); !errors.As(err, &pe) || !strings.Contains(err.Error(), want) {
		t.Fatalf("opening over the respelled log: %v, want a *pickle.Error naming %q", err, want)
	}

	cycle := &Node{}
	cycle.Arcs = []Arc{{Label: "x", Child: &Node{Arcs: []Arc{{Label: "y", Child: cycle}}}}}
	if _, err := pickle.Marshal(&PutSubtree{Path: []string{"d"}, Subtree: cycle}); !errors.As(err, &pe) {
		t.Fatalf("cyclic subtree: Marshal = %v, want a *pickle.Error", err)
	}
}

func TestRename(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	s.Set("old/a", "1")
	s.Set("old/b", "2")
	if err := s.Rename("old", "new/place"); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Lookup("new/place/a"); v != "1" {
		t.Error("a lost")
	}
	if _, err := s.Lookup("old/a"); !errors.Is(err, ErrNotFound) {
		t.Error("old path survived")
	}
	// Preconditions.
	if err := s.Rename("missing", "x"); !errors.Is(err, ErrNotFound) {
		t.Errorf("rename missing: %v", err)
	}
	s.Set("p/q", "v")
	if err := s.Rename("p", "p/q/r"); err == nil {
		t.Error("moved a tree into itself")
	}
	s.Set("occupied", "v")
	if err := s.Rename("p", "occupied"); err == nil {
		t.Error("rename clobbered destination")
	}
}

func TestDurability(t *testing.T) {
	fs := vfs.NewMem(1)
	s := open(t, fs)
	for i := 0; i < 20; i++ {
		s.Set(fmt.Sprintf("dir%d/name%d", i%3, i), fmt.Sprintf("v%d", i))
	}
	s.Delete("dir0/name0")
	s.Rename("dir1/name1", "renamed")
	s.Close()
	fs.Crash()

	s2 := open(t, fs)
	defer s2.Close()
	if _, err := s2.Lookup("dir0/name0"); !errors.Is(err, ErrNotFound) {
		t.Error("delete lost")
	}
	if v, _ := s2.Lookup("renamed"); v != "v1" {
		t.Error("rename lost")
	}
	if v, _ := s2.Lookup("dir2/name2"); v != "v2" {
		t.Error("set lost")
	}
}

func TestCheckpointPreservesTree(t *testing.T) {
	fs := vfs.NewMem(1)
	s := open(t, fs)
	for i := 0; i < 50; i++ {
		s.Set(fmt.Sprintf("a/b%d/c%d", i%5, i), strings.Repeat("v", 20))
	}
	before, _ := s.Count()
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.Set("post/cp", "x")
	s.Close()

	s2 := open(t, fs)
	defer s2.Close()
	after, _ := s2.Count()
	if after != before+2 { // "post" + "cp"
		t.Errorf("node count %d -> %d", before, after)
	}
	if v, _ := s2.Lookup("post/cp"); v != "x" {
		t.Error("post-checkpoint update lost")
	}
}

func TestPathValidation(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	if err := s.Set("a//b", "v"); err == nil {
		t.Error("empty component accepted")
	}
	if _, err := SplitPath("///"); err != nil {
		t.Error("all-slash path should normalize to root")
	}
	parts, err := SplitPath("/a/b/")
	if err != nil || !reflect.DeepEqual(parts, []string{"a", "b"}) {
		t.Errorf("got %v, %v", parts, err)
	}
}

// TestNameDepthBound: an update that would bind a name past MaxNameLabels
// labels is refused, by each update that can deepen the tree, so every later
// checkpoint still succeeds; a name at the bound checkpoints, reopens and
// reads back.
func TestNameDepthBound(t *testing.T) {
	labels := func(prefix string, n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = fmt.Sprintf("%s%d", prefix, i)
		}
		return out
	}
	name := func(prefix string, n int) string { return JoinPath(labels(prefix, n)) }
	// chain is a subtree whose longest name below its root has n labels.
	chain := func(height int) *Node {
		root := &Node{}
		for i, n := 1, root; i <= height; i++ {
			child := &Node{Value: "v", HasValue: i == height}
			n.Arcs = []Arc{{Label: "c", Child: child}}
			n = child
		}
		return root
	}
	fs := vfs.NewMem(1)
	s := open(t, fs)
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrTooDeep) {
			t.Errorf("%s = %v, want ErrTooDeep", what, err)
		}
		if err := s.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after %s: %v", what, err)
		}
	}
	refused("Set one label past the bound", s.Set(name("x", MaxNameLabels+1), "v"))
	refused("Put past the bound", s.Put(name("p", 100), chain(MaxNameLabels-99)))
	if err := s.Put(name("q", 100), chain(MaxNameLabels-100)); err != nil {
		t.Fatalf("Put at the bound: %v", err)
	}
	if err := s.Set("short/leaf", "v"); err != nil {
		t.Fatal(err)
	}
	refused("Rename past the bound", s.Rename(name("q", 2), name("r", 3)))
	if err := s.Rename(name("q", 1), "r"); err != nil {
		t.Fatalf("Rename to a shallower name: %v", err)
	}
	if err := s.Rename("short", name("s", MaxNameLabels-1)); err != nil {
		t.Fatalf("Rename to the bound: %v", err)
	}
	// A name's labels past its deepest existing node are one inline path,
	// whose labels all count: h0 holds x and j0 → … → j99.
	for _, n := range []string{"h0/x", "h0/" + name("j", 100)} {
		if err := s.Set(n, "v"); err != nil {
			t.Fatal(err)
		}
	}
	refused("Rename of a node holding an inline path past the bound", s.Rename("h0", name("k", MaxNameLabels-99)))
	refused("Rename of an inline path past the bound", s.Rename("h0/j0", name("k", MaxNameLabels-98)))
	if err := s.Rename("h0", name("k", MaxNameLabels-100)); err != nil {
		t.Fatalf("Rename of a node holding an inline path to the bound: %v", err)
	}

	deep := name("d", MaxNameLabels)
	if err := s.Set(deep, "at the bound"); err != nil {
		t.Fatalf("Set at the bound: %v", err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatalf("checkpoint with a name at the bound: %v", err)
	}
	s.Close()
	s = open(t, fs)
	defer s.Close()
	if v, err := s.Lookup(deep); err != nil || v != "at the bound" {
		t.Fatalf("after reopen: %q, %v", v, err)
	}
	if v, err := s.Lookup(name("s", MaxNameLabels-1) + "/leaf"); err != nil || v != "v" {
		t.Fatalf("renamed leaf after reopen: %q, %v", v, err)
	}

	// A delta read from disk is held to the same bound.
	tr := NewTree()
	for _, op := range []DeltaOp{
		{Op: DeltaSet, Path: labels("x", MaxNameLabels+1), Value: "v", HasValue: true},
		{Op: DeltaPut, Path: labels("p", 100), Subtree: chain(MaxNameLabels - 99)},
	} {
		if err := tr.ApplyDelta(&TreeDelta{Ops: []DeltaOp{op}}); !errors.Is(err, ErrTooDeep) {
			t.Errorf("ApplyDelta of a %v op past the bound = %v, want ErrTooDeep", op.Op, err)
		}
	}
}

// Property: a random sequence of sets and deletes matches a flat map oracle.
func TestQuickOracle(t *testing.T) {
	type op struct {
		Del bool
		Key uint8 // small keyspace to get collisions
		Val string
	}
	f := func(ops []op) bool {
		fs := vfs.NewMem(3)
		s, err := Open(Config{FS: fs})
		if err != nil {
			return false
		}
		oracle := map[string]string{}
		for _, o := range ops {
			name := fmt.Sprintf("k%d/leaf", o.Key%8)
			if o.Del {
				err := s.Delete(name)
				_, existed := oracle[name]
				// Delete removes the leaf node; parent may remain.
				if existed {
					if err != nil {
						return false
					}
					delete(oracle, name)
				}
				// Deleting a non-existent name errors; both fine.
			} else {
				if err := s.Set(name, o.Val); err != nil {
					return false
				}
				oracle[name] = o.Val
			}
		}
		// Compare by restart, too.
		s.Close()
		s2, err := Open(Config{FS: fs})
		if err != nil {
			return false
		}
		defer s2.Close()
		for k, v := range oracle {
			got, err := s2.Lookup(k)
			if err != nil || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
