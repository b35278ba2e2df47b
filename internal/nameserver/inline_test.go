package nameserver

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
	"unsafe"

	"smalldb/internal/core"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// An arc to a bare path holds the path's labels and its leaf's value itself,
// and no Node exists for any node on it. These tests hold what that must
// save — memory, and a Node allocation per node at load — and what it must
// not change: every byte the tree pickles to.

// bulkLoad writes depts departments of 500 hosts in the benchmark's shape,
// org/deptNNN/hostNNNNN/addr with a distinct 48-byte value each, one
// PutSubtree per department spelled with the input-only Children maps, and
// checkpoints them.
func bulkLoad(t *testing.T, fs vfs.FS, depts int) (names int) {
	t.Helper()
	s := open(t, fs)
	defer s.Close()
	for d := 0; d < depts; d++ {
		dept := &Node{Children: map[string]*Node{}}
		for h := 0; h < 500; h++ {
			idx := d*500 + h
			leaf := &Node{Value: fmt.Sprintf("%048x", idx*0x9e3779b9), HasValue: true}
			dept.Children[fmt.Sprintf("host%05d", idx)] = &Node{Children: map[string]*Node{"addr": leaf}}
			names++
		}
		if err := s.Put(fmt.Sprintf("org/dept%03d", d), dept); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return names
}

// heap returns the live heap and the bytes of the spans that hold it, the
// heap's share of the resident set.
func heap() (live, inUse uint64) {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc, m.HeapInuse
}

// flatLoad writes one directory of names bare leaves, flat/nNNNNN with a
// distinct 48-byte value each, in one PutSubtree, and checkpoints it.
func flatLoad(t *testing.T, fs vfs.FS, names int) {
	t.Helper()
	s := open(t, fs)
	defer s.Close()
	dir := &Node{Children: map[string]*Node{}}
	for i := 0; i < names; i++ {
		dir.Children[fmt.Sprintf("n%05d", i)] = &Node{Value: fmt.Sprintf("%048x", i*0x9e3779b9), HasValue: true}
	}
	if err := s.Put("flat", dir); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestLoadedTreeBytesPerName: a store reopened from a checkpoint holds each
// name in at most a ceiling's heap bytes, and in spans of at most another's:
// what the load's garbage leaves as holes among the names shows in the
// second. In the benchmark's shape a name — a host node and its addr leaf —
// takes 90 on amd64: the host's 24-byte arc in its department's block, and
// the one 64-byte string that arc holds, with the host label, addr and the
// value. With the label a string of its own beside the path, in a 40-byte
// arc, it took 122; with the host a Node of its own, its one arc holding
// the leaf, 251; with the leaf a Node too, 305. Its spans take 109; 120 at
// 122, and 157 when the decode folded addr's path apart, in the size class
// of the host's, each kept path beside a dead one. In one flat directory of
// 10⁵ bare leaves a name takes 93, in as many of spans: its arc, its
// 55-byte string, and the slack of the arc array the decoder grows.
func TestLoadedTreeBytesPerName(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the heap")
	}
	if size := unsafe.Sizeof(Arc{}); unsafe.Sizeof(uintptr(0)) == 8 && size != 24 {
		t.Fatalf("an arc is %d bytes, want 24: one string and a pointer", size)
	}
	for _, tc := range []struct {
		name          string
		load          func(fs vfs.FS) (names int)
		ceiling, span uint64
	}{
		{"benchmark", func(fs vfs.FS) int { return bulkLoad(t, fs, 20) }, 100, 125},
		{"flat", func(fs vfs.FS) int { flatLoad(t, fs, 100000); return 100000 }, 100, 110},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := vfs.NewMem(1)
			names := tc.load(fs)
			live0, inUse0 := heap()
			s := open(t, fs)
			live, inUse := heap()
			runtime.KeepAlive(s)
			s.Close()
			per, spans := (live-live0)/uint64(names), (inUse-inUse0)/uint64(names)
			t.Logf("%d names loaded: %d heap bytes each, in %d bytes of spans", names, per, spans)
			if per > tc.ceiling || spans > tc.span {
				t.Fatalf("a loaded name takes %d heap bytes in %d of spans, want at most %d in %d", per, spans, tc.ceiling, tc.span)
			}
		})
	}
}

// TestChurnPinsNothing: between checkpoints the store keeps the tree it
// serves and nothing more. Reopened from the benchmark's 10⁵ names and given
// a new value for each of them, unsynced and without a checkpoint, its live
// heap may grow by at most a ceiling's bytes per Set: it grows 6 on amd64.
// While the store pinned the last checkpoint's view to diff the next one
// against, every block and path string a Set replaced stayed live until the
// next checkpoint, 95 bytes a Set.
func TestChurnPinsNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the heap")
	}
	const depts, ceiling = 200, 20
	fs, err := vfs.NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	names := bulkLoad(t, fs, depts)
	s, err := Open(Config{FS: fs, UnsafeNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	live0, _ := heap()
	batch := make([]core.Update, 0, 500)
	for d := 0; d < depts; d++ {
		batch = batch[:0]
		for h := 0; h < 500; h++ {
			idx := d*500 + h
			batch = append(batch, &SetValue{
				Path:  []string{"org", fmt.Sprintf("dept%03d", d), fmt.Sprintf("host%05d", idx), "addr"},
				Value: fmt.Sprintf("%048x", idx*0x7f4a7c15),
			})
		}
		if err := s.ApplyBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	batch = nil
	live, _ := heap()
	runtime.KeepAlive(s)
	grew := int64(live) - int64(live0)
	t.Logf("%d Sets of %d names: live heap grew %d bytes, %d a Set", names, names, grew, grew/int64(names))
	if grew > ceiling*int64(names) {
		t.Fatalf("%d Sets grew the live heap %d bytes, %d a Set; want at most %d a Set", names, grew, grew/int64(names), ceiling)
	}
}

// benchImage returns the checkpoint image of bulkLoad's depts departments
// and the names it holds.
func benchImage(t *testing.T, depts int) (image []byte, names int) {
	t.Helper()
	fs := vfs.NewMem(1)
	names = bulkLoad(t, fs, depts)
	s := open(t, fs)
	defer s.Close()
	s.Store().View(func(root any) error {
		image = mustMarshal(root)
		return nil
	})
	return image, names
}

// TestTreeDecodeAllocatesNoLeafNode: loading that image decodes each
// host/addr path straight into its department's arc. Per name the decode
// allocates the addr leaf's box, the value and addr's label, which pickle
// hands up boxed, the host's arc array, and the host's path, which folds
// them: five (5.01), of which one stays. With a label string beside each
// path it was five too, two staying; a Node per host made five, all
// staying, and a Node per leaf six.
func TestTreeDecodeAllocatesNoLeafNode(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	image, names := benchImage(t, 4)
	var tr Tree
	allocs := testing.AllocsPerRun(3, func() {
		tr = Tree{}
		if err := pickle.Unmarshal(image, &tr); err != nil {
			t.Fatal(err)
		}
	})
	if a := tr.at([]string{"org", "dept000", "host00000"}); a.Child != nil || span(a) != 2 {
		t.Fatalf("a loaded host is %+v, not an inline path to its addr leaf", a)
	}
	per := allocs / float64(names)
	t.Logf("%d names decoded: %.2f allocations each", names, per)
	if per > 5.5 {
		t.Fatalf("decoding allocates %.2f times per name, want at most 5.5", per)
	}
}

// TestTreeDecodeBytesPerName: decoding the image of TestLoadedTreeBytesPerName
// allocates at most 300 bytes per name: 262 on amd64, of which the tree it
// builds keeps about 90. Folding addr's path apart from the host's, in the
// same size class, made 224 and left each kept path's neighbour a hole;
// with a label string beside each path it was 217, keeping about 120; with
// a Node per host 249, keeping about 250; an identity table entry for each
// host node and each inline leaf, which a pair owning its value needs none
// of, made it about 460.
func TestTreeDecodeBytesPerName(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	image, names := benchImage(t, 20)
	var tr Tree
	if err := pickle.Unmarshal(image, &tr); err != nil { // compiles the plans
		t.Fatal(err)
	}
	var err error
	per := allocated(func() {
		tr = Tree{}
		err = pickle.Unmarshal(image, &tr)
	}) / uint64(names)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d names decoded: %d bytes allocated each", names, per)
	if per > 300 {
		t.Fatalf("decoding allocates %d bytes per name, want at most 300", per)
	}
}

// pinnedShapes is a tree holding an inline leaf, an inline path of two
// plain nodes and a stamped inline leaf beside each shape that must stay a
// node: a leaf with no value, one with an empty value, one whose value
// starts with a NUL byte, a plain node leading to that leaf, a leaf whose
// value starts with the stamp mark, an emptied directory, and an arc to nil.
func pinnedShapes() *Tree {
	tr := NewTree()
	for _, u := range []*SetValue{{Path: []string{"d", "inline"}, Value: "v"}, {Path: []string{"d", "empty"}, Value: ""},
		{Path: []string{"d", "gone", "x"}, Value: "x"}, {Path: []string{"d", "chain", "x", "y"}, Value: "c"},
		{Path: []string{"d", "nul", "x"}, Value: "\x00n"}, {Path: []string{"d", "mark"}, Value: "\x01m"}} {
		if err := u.Apply(tr); err != nil {
			panic(err)
		}
	}
	(&DeleteSubtree{Path: []string{"d", "gone", "x"}}).Apply(tr)
	if !tr.SetStamped([]string{"d", "stamped"}, "s", 7, "a") {
		panic("a stamped write to a new name lost")
	}
	if tr.SetStamped([]string{"d", "stamped"}, "lost", 6, "b") || tr.SetStamped([]string{"d", "stamped"}, "lost", 7, "") {
		panic("an older stamped write won")
	}
	tr.ensure([]string{"d", "novalue"})
	tr.ensure([]string{"d"}).bind(arcOf("nil", nil))
	return tr
}

// TestInlineLeafFormatPins: a tree with inline leaves pickles to the bytes of
// the same tree spelled with a Node per leaf — as a whole checkpoint image,
// as a delta after one Set, and as a PutSubtree log entry — and loads back to
// the same bytes, with each shape that is not a bare leaf still a node.
func TestInlineLeafFormatPins(t *testing.T) {
	tr := pinnedShapes()
	if a := tr.at([]string{"d", "inline"}); a.Child != nil || a.leaf() != "v" {
		t.Fatalf("a Set of a new name left %+v, not an inline leaf", a)
	}
	if a := tr.at([]string{"d", "chain"}); a.Child != nil || a.leaf() != "\x00\x01x\x00\x01yc" {
		t.Fatalf("a Set of a name three labels below d left %+v, not an inline path", a)
	}
	if a := tr.at([]string{"d", "stamped"}); a.Child != nil || a.leaf() != "\x01\x07\x01as" {
		t.Fatalf("a stamped Set of a new name, then two that lose, left %+v, not the first's inline leaf", a)
	}

	// The checkpoint image, as a store writes it at its creation: every file
	// of the new store, byte for byte.
	files := func(root *Tree) map[string]string {
		fs := vfs.NewMem(1)
		st, err := core.Open(core.Config{FS: fs, NewRoot: func() any { return root }})
		if err != nil {
			t.Fatal(err)
		}
		st.Close()
		out := map[string]string{}
		names, _ := fs.List()
		for _, name := range names {
			b, err := vfs.ReadFile(fs, name)
			if err != nil {
				t.Fatal(err)
			}
			out[name] = string(b)
		}
		return out
	}
	if got, want := files(tr), files(&Tree{Root: flatCopy(tr.Root)}); len(got) < 2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("store created with inline leaves:\n %q\nwith node leaves:\n %q", got, want)
	}
	raw := mustMarshal(tr)
	var back Tree
	if err := pickle.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if again := mustMarshal(&back); !bytes.Equal(again, raw) {
		t.Fatal("the image does not load back to the same bytes")
	}
	for label, inline := range map[string]bool{"inline": true, "chain": true, "empty": false, "nul": false, "gone": false, "stamped": true, "mark": false, "novalue": false, "nil": false} {
		a := back.at([]string{"d", label})
		if (a.leaf() != "") != inline || (a.Child == nil) != (inline || label == "nil") {
			t.Errorf("loaded %s: %+v", label, a)
		}
	}
	if gone := back.at([]string{"d", "gone"}).Child; gone.Arcs == nil || len(gone.Arcs) != 0 {
		t.Errorf("the emptied directory loaded with arcs %#v", gone.Arcs)
	}

	if nul := back.at([]string{"d", "nul"}).Child; nul == nil || nul.arc("x").Child == nil {
		t.Errorf("a leaf whose value starts with NUL, or the plain node leading to it, loaded inline")
	}

	// The reference diff after one Set of an existing leaf, of a new one, of
	// an inline path's own name, of a name two labels below an existing node,
	// and stamped, of a stamped inline leaf and of a new name under a chain;
	// and the fold of each.
	prev := tr.SnapshotView().(*Tree)
	w := &Node{Value: "w", HasValue: true}
	for _, tc := range []struct {
		path  []string
		stamp uint64 // a stamped Set's, by "b"
		want  DeltaOp
	}{
		{[]string{"d", "inline"}, 0, DeltaOp{Op: DeltaSet, Path: []string{"d", "inline"}, Value: "w", HasValue: true}},
		{[]string{"d", "new"}, 0, DeltaOp{Op: DeltaPut, Path: []string{"d", "new"}, Subtree: w}},
		{[]string{"d", "chain", "x", "y"}, 0, DeltaOp{Op: DeltaSet, Path: []string{"d", "chain", "x", "y"}, Value: "w", HasValue: true}},
		{[]string{"d", "new2", "p", "q"}, 0, DeltaOp{Op: DeltaPut, Path: []string{"d", "new2"}, Subtree: &Node{Arcs: []Arc{arcOf("p", &Node{Arcs: []Arc{arcOf("q", w)}})}}}},
		{[]string{"d", "stamped"}, 8, DeltaOp{Op: DeltaSet, Path: []string{"d", "stamped"}, Value: "w", HasValue: true, Stamp: 8, StampBy: "b"}},
		{[]string{"d", "chain", "x", "z"}, 9, DeltaOp{Op: DeltaPut, Path: []string{"d", "chain", "x", "z"}, Subtree: &Node{Value: "w", HasValue: true, Stamp: 9, StampBy: "b"}}},
	} {
		if tc.stamp == 0 {
			(&SetValue{Path: tc.path, Value: "w"}).Apply(tr)
		} else if !tr.SetStamped(tc.path, "w", tc.stamp, "b") {
			t.Fatalf("a stamped Set of %v stamped %d lost", tc.path, tc.stamp)
		}
		cur := tr.SnapshotView().(*Tree)
		if got, want := mustMarshal(diffDelta(cur, prev)), mustMarshal(&TreeDelta{Ops: []DeltaOp{tc.want}}); !bytes.Equal(got, want) {
			t.Fatalf("delta after a Set of %v:\n %x\nwant\n %x", tc.path, got, want)
		}
		// The fold, which cannot tell a new name from an old, sets the name.
		set := DeltaOp{Op: DeltaSet, Path: tc.path, Value: "w", HasValue: true, Stamp: tc.stamp}
		if tc.stamp > 0 {
			set.StampBy = "b"
		}
		fold, _ := foldDelta(t, cur, []core.Update{&SetValue{Path: tc.path, Value: "w"}})
		if got, want := mustMarshal(fold), mustMarshal(&TreeDelta{Ops: []DeltaOp{set}}); !bytes.Equal(got, want) {
			t.Fatalf("fold of a Set of %v:\n %x\nwant\n %x", tc.path, got, want)
		}
		prev = cur
	}

	// A PutSubtree log entry, self-describing and table-relative.
	u := &PutSubtree{Path: []string{"p"}, Subtree: &Node{Children: map[string]*Node{
		"leaf": {Value: "1", HasValue: true}, "dir": {Children: map[string]*Node{"x": {Value: "2", HasValue: true}}},
		"stamped": {Value: "3", HasValue: true, Stamp: 1}, "bare": {},
		"chain": {Children: map[string]*Node{"x": {Children: map[string]*Node{"y": {Value: "4", HasValue: true}}}}},
	}}}
	if err := u.Verify(NewTree()); err != nil {
		t.Fatal(err)
	}
	if u.Subtree.arc("leaf").leaf() != "1" || u.Subtree.arc("chain").leaf() != "\x00\x01x\x00\x01y4" {
		t.Fatal("Verify's canonical copy holds the bare leaf or the bare path as nodes")
	}
	flat := &PutSubtree{Path: u.Path, Subtree: flatCopy(u.Subtree)}
	if !bytes.Equal(mustMarshal(u), mustMarshal(flat)) {
		t.Fatal("a PutSubtree with inline leaves pickles unlike its node-leaf spelling")
	}
	tab := pickle.NewTable(&PutSubtree{})
	got, err1 := tab.AppendMarshal(nil, u)
	want, err2 := tab.AppendMarshal(nil, flat)
	if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
		t.Fatalf("table-relative PutSubtree differs (%v, %v)", err1, err2)
	}
}

// TestInlineLeafLookupAllocs: reading an inline leaf, or the leaf at the end
// of an inline path, allocates nothing.
func TestInlineLeafLookupAllocs(t *testing.T) {
	tr := pinnedShapes()
	for name, want := range map[string]string{"d/inline": "v", "d/chain/x/y": "c"} {
		parts, _ := SplitPath(name)
		if allocs := testing.AllocsPerRun(100, func() {
			if v, err := tr.Lookup(parts); err != nil || v != want {
				t.Fatal(v, err)
			}
		}); allocs != 0 {
			t.Fatalf("Lookup of %s allocated %.0f times", name, allocs)
		}
	}
}

// edgeLabels are labels at the edges of an arc's path encoding: 127, 128
// and 16 384 bytes long, where the uvarint length before the label grows
// from one byte to two and to three; labels holding a NUL byte or the stamp
// mark, the bytes that lead an inline plain node and a stamped leaf; and
// labels that are prefixes of each other.
var edgeLabels = []string{strings.Repeat("l", 127), strings.Repeat("m", 128), strings.Repeat("n", 16384),
	"\x00", "\x01", "\x01x", "a", "a\x00", "a\x00b", "ab"}

// TestArcEdgeShapes: each edge label, as an arc to a Node, an inline bare
// leaf, an inline plain-node path and a stamped inline leaf, beside an arc
// to nil loaded from a foreign image. The tree pickles to the bytes of its
// all-Node spelling, List gives the labels in byte order, and Lookup and
// Enumerate agree with a map model: as built, after Sets, Deletes and
// Renames, and after a reload from a checkpoint.
func TestArcEdgeShapes(t *testing.T) {
	model := map[string]string{} // name → value
	tr := NewTree()
	apply := func(u core.Update) {
		t.Helper()
		if err := u.Verify(tr); err != nil {
			t.Fatal(err)
		}
		if err := u.Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	set := func(v string, parts ...string) {
		apply(&SetValue{Path: parts, Value: v})
		model[JoinPath(parts)] = v
	}
	for _, l := range edgeLabels {
		set("n", "node", l)
		set("c", "node", l, "c")
		set("v", "bare", l)
		set("p", "path", l, "x", "y")
		if !tr.SetStamped([]string{"stamped", l}, "s", 3, "a") {
			t.Fatal("a stamped Set of a new name lost")
		}
		model["stamped/"+l] = "s"
	}
	for _, l := range edgeLabels {
		for dir, shape := range map[string]func(a Arc) bool{
			"node":    func(a Arc) bool { return a.Child != nil },
			"bare":    func(a Arc) bool { return a.Child == nil && a.leaf() == "v" },
			"path":    func(a Arc) bool { return a.Child == nil && span(a) == 3 },
			"stamped": func(a Arc) bool { return a.Child == nil && a.leaf() == "\x01\x03\x01as" },
		} {
			if a := tr.at([]string{dir, l}); a.Label() != l || !shape(a) {
				t.Fatalf("%s/%.20q: the arc is not of its shape: %.60q", dir, l, a.path)
			}
		}
	}
	tr.ensure([]string{"bare"}).bind(arcOf("nil", nil))
	var foreign Tree
	if err := pickle.Unmarshal(mustMarshal(tr), &foreign); err != nil {
		t.Fatal(err)
	}
	tr = &foreign

	check := func(when string) {
		t.Helper()
		if raw, flat := mustMarshal(tr), mustMarshal(&Tree{Root: flatCopy(tr.Root)}); !bytes.Equal(raw, flat) {
			t.Fatalf("%s: the tree pickles unlike its all-Node spelling", when)
		}
		// dir → labels under it; the four directories stay when emptied
		lists := map[string]map[string]bool{"": {"bare": true, "node": true, "path": true, "stamped": true}, "bare": {"nil": true}}
		for name, v := range model {
			parts, _ := SplitPath(name)
			for i := range parts {
				dir := JoinPath(parts[:i])
				if lists[dir] == nil {
					lists[dir] = map[string]bool{}
				}
				lists[dir][parts[i]] = true
			}
			if got, err := tr.Lookup(parts); err != nil || got != v {
				t.Fatalf("%s: Lookup(%.40q) = %q, %v; want %q", when, name, got, err, v)
			}
		}
		for dir, labels := range lists {
			var want []string
			for l := range labels {
				want = append(want, l)
			}
			sort.Strings(want)
			parts, _ := SplitPath(dir)
			if got, err := tr.List(parts); err != nil || !slices.Equal(got, want) {
				t.Fatalf("%s: List(%.40q) = %.200q, %v; want %.200q", when, dir, got, err, want)
			}
		}
		if _, err := tr.Lookup([]string{"bare", "nil"}); !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: Lookup of the arc to nil: %v", when, err)
		}
		got := map[string]string{}
		tr.Enumerate(nil, func(name, value string) error { got[name] = value; return nil })
		if !maps.Equal(got, model) {
			t.Fatalf("%s: Enumerate gives %d names, the model %d", when, len(got), len(model))
		}
	}
	check("loaded from a foreign image")

	rename := func(from, to []string) {
		apply(&Move{From: from, To: to})
		f, tt := JoinPath(from), JoinPath(to)
		for name, v := range model {
			if name == f || strings.HasPrefix(name, f+"/") {
				delete(model, name)
				model[tt+name[len(f):]] = v
			}
		}
	}
	remove := func(parts ...string) {
		apply(&DeleteSubtree{Path: parts})
		p := JoinPath(parts)
		for name := range model {
			if name == p || strings.HasPrefix(name, p+"/") {
				delete(model, name)
			}
		}
	}
	for i, l := range edgeLabels {
		set("w", "bare", l)
		set("q", "path", l, "x", "y")
		if i%2 == 0 {
			set("z", "path", l, "x", "z") // opens the inline path
			remove("node", l, "c")
			remove("stamped", l)
			rename([]string{"bare", l}, []string{"moved", l})
		} else {
			remove("path", l, "x")
			set("r", "path", l)
			rename([]string{"path", l}, []string{"moved", l})
			rename([]string{"stamped", l}, []string{"deep", l, "er"})
		}
	}
	check("after Sets, Deletes and Renames")

	fs := vfs.NewMem(1)
	for _, root := range []func() any{func() any { return tr }, NewRoot} {
		st, err := core.Open(core.Config{FS: fs, NewRoot: root})
		if err != nil {
			t.Fatal(err)
		}
		st.View(func(root any) error { tr = root.(*Tree); return nil })
		st.Close()
	}
	check("reloaded from a checkpoint")
}

// leafTree builds a small tree from b, a byte an arc: in turn, under the node
// being built, a bare leaf spelled inline or as a node — from byte 0x80 on, a
// node whose value starts with the stamp mark —, a stamped leaf spelled as a
// node or, from 0x80 on, inline, a leaf with no value or with an empty one,
// an emptied directory, an arc to nil — or, from byte 0x80 on, a bare path
// of one to three plain nodes, spelled inline or as nodes, its leaf stamped
// from byte 186 on —, a directory filled by the bytes that follow, or the
// end of the node — or, at bytes 242 and 251, the next arc's label made an
// edge label: its place's four digits followed, in turn, by 123, 124 or
// 16 380 more bytes (a label 127, 128 or 16 384 bytes long), a NUL byte or
// the stamp mark. A Set of one more name then copies the root, in blocks
// if it is wide.
func leafTree(b []byte) *Tree {
	b = b[:min(len(b), 9999)] // so that the labels ascend
	tails := []string{strings.Repeat("l", 123), strings.Repeat("m", 124), strings.Repeat("n", 16380), "\x00", "\x01"}
	edges := 0
	var build func(depth int) *Node
	build = func(depth int) *Node {
		n := &Node{Arcs: []Arc{}}
		tail := ""
		for len(b) > 0 {
			c := b[0]
			b = b[1:]
			a, v := arcOf(fmt.Sprintf("%04d", len(n.Arcs))+tail, nil), fmt.Sprint(c)
			tail = ""
			switch c % 9 {
			case 0:
				a = inlineArc(a.Label(), nil, &Node{Value: v, HasValue: true})
			case 1:
				if a.Child = (&Node{Value: v, HasValue: true}); c >= 0x80 {
					a.Child.Value = "\x01" + v
				}
			case 2:
				if a.Child = (&Node{Value: v, HasValue: true, Stamp: uint64(c), StampBy: "s"}); c >= 0x80 {
					a = copyArc(a.Label(), a.Child)
				}
			case 3:
				a.Child = &Node{}
			case 4:
				a.Child = &Node{HasValue: true}
			case 5:
				a.Child = &Node{Arcs: []Arc{}}
			case 6:
				if c >= 0x80 {
					n := &Node{Value: v, HasValue: true}
					if c >= 186 {
						n.Stamp, n.StampBy = uint64(c), "s"
					}
					for i := 1 + int(c/9)%3; i > 0; i-- {
						n = &Node{Arcs: []Arc{arcOf(fmt.Sprint("p", i), n)}}
					}
					if a.Child = n; c/27%2 == 0 {
						a = copyArc(a.Label(), n)
					}
				}
			case 7:
				if depth < 4 {
					a.Child = build(depth + 1)
				}
			case 8:
				if c < 0xF0 {
					return n
				}
				tail, edges = tails[edges%len(tails)], edges+1
				continue
			}
			n.Arcs = append(n.Arcs, a)
		}
		return n
	}
	tr := &Tree{Root: build(0)}
	tr.SnapshotView()
	(&SetValue{Path: []string{"zz"}, Value: "z"}).Apply(tr)
	return tr
}

// FuzzInlineLeafPickle: a tree mixing inline leaves and paths with leaves
// that must stay nodes pickles to the bytes of its all-node spelling, loads
// with every bare path inline and the same names, and pickles again to the
// same bytes.
// Its seeds are in testdata/fuzz/FuzzInlineLeafPickle.
func FuzzInlineLeafPickle(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		tr := leafTree(b)
		raw := mustMarshal(tr)
		if flat := mustMarshal(&Tree{Root: flatCopy(tr.Root)}); !bytes.Equal(raw, flat) {
			t.Fatalf("inline leaves pickle as\n %x\nnot as node leaves\n %x", raw, flat)
		}
		var back Tree
		if err := pickle.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		if again := mustMarshal(&back); !bytes.Equal(again, raw) {
			t.Fatal("the loaded tree pickles to other bytes")
		}
		var walk func(n *Node)
		walk = func(n *Node) {
			for _, a := range n.AllArcs() {
				if a.Child != nil && a.Child.inline() {
					t.Fatalf("bare path %q loaded as a node", a.Label())
				}
				if a.Child != nil {
					walk(a.Child)
				}
			}
		}
		walk(back.Root)
		want, _ := enumerateTree(tr, nil)
		if got, _ := enumerateTree(&back, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("loaded tree enumerates %v, want %v", got, want)
		}
	})
}
