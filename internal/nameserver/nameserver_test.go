package nameserver

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"smalldb/internal/vfs"
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

func TestSubtreeCopyIsolation(t *testing.T) {
	s := open(t, vfs.NewMem(1))
	defer s.Close()
	s.Set("t/a", "1")
	cp, err := s.SubtreeCopy("t")
	if err != nil {
		t.Fatal(err)
	}
	cp.Arcs[0].Child.Value = "hacked" // t/a
	if v, _ := s.Lookup("t/a"); v != "1" {
		t.Error("SubtreeCopy aliases the database")
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
