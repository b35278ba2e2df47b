package nameserver

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/core"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzTreeDecode, FuzzDeltaDecode and FuzzCheckpointChain from their seeds")

// A checkpoint image is the one place a Tree is built by something other
// than the tree's own operations: pickle appends whatever arcs the stream
// lists. What must hold of any byte string is stated once, in checkDecode,
// and held against the committed seeds (TestTreeDecodeSeeds) and against
// whatever the fuzzer derives from them (FuzzTreeDecode).

// decodeSeed is one hostile — or plain — image and what decoding it gives:
// an error containing wantErr, or a tree whose root lists wantList.
type decodeSeed struct {
	name     string
	image    []byte
	wantErr  string
	wantList string
}

func mustMarshal(v any) []byte {
	raw, err := pickle.Marshal(v)
	if err != nil {
		panic(err)
	}
	return raw
}

// patch replaces the one occurrence of old in raw.
func patch(raw, old, new []byte) []byte {
	if bytes.Count(raw, old) != 1 {
		panic(fmt.Sprintf("seed patch: %x occurs %d times in %x", old, bytes.Count(raw, old), raw))
	}
	return bytes.Replace(raw, old, new, 1)
}

// shareArc respells the pickle raw so that the arc labelled to, which it
// writes as an arc to nil, references the node the arc labelled from points
// to: the image of two arcs sharing one node. A pair owns its value, so no
// writer writes such an image; pickles before that rule did. Labels are
// single-byte-length strings and the node's identity id is one byte.
func shareArc(raw []byte, from, to string) []byte {
	arc := func(label string, tag byte) []byte {
		return append(append([]byte{0x0a, byte(len(label))}, label...), tag)
	}
	at := bytes.Index(raw, arc(from, 0x10))
	if at < 0 {
		panic(fmt.Sprintf("seed patch: no arc %q to a node in %x", from, raw))
	}
	id := raw[at+len(arc(from, 0x10))]
	return patch(raw, arc(to, 0x02), append(arc(to, 0x11), id))
}

// seedCorpus holds the committed corpus entry named name of the fuzz target
// to image, rewriting it first under -update-corpus.
func seedCorpus(t *testing.T, target, name string, image []byte) {
	t.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	entry := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(image)) + ")\n")
	if *updateCorpus {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), entry, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if on, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(on, entry) {
		t.Errorf("committed corpus entry is not this seed (rerun with -update-corpus): %v", err)
	}
}

// allocated runs fn and returns the bytes it allocated. However many
// elements an image claims, decoding it must allocate in proportion to the
// bytes it holds.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// typedDecodeError fails t unless err, from decoding image, is a
// *pickle.Error, which is also how pickle reports a stream that ends inside a
// value; only an image that ends before the value starts, at most the magic
// byte, is a bare io.EOF.
func typedDecodeError(t *testing.T, image []byte, err error) {
	t.Helper()
	var pe *pickle.Error
	if !errors.As(err, &pe) && !(err == io.EOF && len(image) <= 1) {
		t.Fatalf("decode failed with an untyped error: %T %v", err, err)
	}
}

// decodeSeeds builds the corpus. The encoder writes arcs in slice order
// without looking at them, so most hostile images are just the pickles of
// trees the tree's own operations would never build; the rest are patched.
// (Wire tags, from pickle/tags.go: 0x02 nil, 0x0a string, 0x0e map, 0x10
// pointer, 0x11 ref; the root's arcs take identity id 2, after the Tree and
// the root Node.)
func decodeSeeds() []decodeSeed {
	leaf := func(v string) *Node { return &Node{Value: v, HasValue: true} }
	tree := func(arcs []Arc) []byte { return mustMarshal(&Tree{Root: &Node{Arcs: arcs}}) }
	one := tree([]Arc{arcOf("only", &Node{})})
	nested := tree([]Arc{arcOf("dir", &Node{Value: "marker"})})
	// A directory of a few blocks' worth of arcs, in order, reversed, and
	// with the last label of the first block repeated as the next label.
	var wide, reversed, straddle []Arc
	var wideList []string
	for i := 0; i < 3*blockSize+5; i++ {
		label := fmt.Sprintf("w%03d", i)
		wide, reversed = append(wide, arcOf(label, leaf(label))), append([]Arc{arcOf(label, leaf(label))}, reversed...)
		straddle = append(straddle, arcOf(label, leaf(label)))
		wideList = append(wideList, label)
	}
	straddle[blockSize] = arcOf(straddle[blockSize-1].Label(), straddle[blockSize].Child)
	// The edge labels, in turn as an arc to a node, an inline leaf, an
	// inline path and a stamped inline leaf, beside an arc to nil.
	edges := NewTree()
	for i, l := range edgeLabels {
		switch i % 4 {
		case 0:
			edges.set([]string{l, "c"}, Node{Value: "n", HasValue: true}, false, false)
		case 1:
			edges.set([]string{l}, Node{Value: "v", HasValue: true}, false, false)
		case 2:
			edges.set([]string{l, "x", "y"}, Node{Value: "p", HasValue: true}, false, false)
		case 3:
			edges.SetStamped([]string{l}, "s", 3, "a")
		}
	}
	edges.Root.bind(arcOf("nil", nil))
	edgeList, _ := edges.List(nil)
	return []decodeSeed{
		{name: "ascending", image: tree([]Arc{arcOf("a", leaf("1")), arcOf("b", leaf("2")), arcOf("c", &Node{Arcs: []Arc{arcOf("d", leaf("4"))}})}), wantList: "a,b,c"},
		{name: "descending", image: tree([]Arc{arcOf("c", leaf("3")), arcOf("b", leaf("2")), arcOf("a", leaf("1"))}), wantList: "a,b,c"},
		{name: "shuffled-nested", image: tree([]Arc{arcOf("m", &Node{Arcs: []Arc{arcOf("z", leaf("z")), arcOf("y", leaf("y"))}}), arcOf("a", leaf("1"))}), wantList: "a,m"},
		{name: "duplicate-adjacent", image: tree([]Arc{arcOf("a", leaf("1")), arcOf("a", leaf("2"))}), wantErr: "duplicate key"},
		{name: "duplicate-distant", image: tree([]Arc{arcOf("b", leaf("1")), arcOf("a", leaf("2")), arcOf("b", leaf("3"))}), wantErr: "duplicate key"},
		{name: "nil-arcs", image: tree(nil), wantList: ""},
		{name: "empty-arcs", image: tree([]Arc{}), wantList: ""},
		{name: "nil-child", image: tree([]Arc{arcOf("a", nil), arcOf("b", leaf("2"))}), wantList: "a,b"},
		{name: "wide", image: tree(wide), wantList: strings.Join(wideList, ",")},
		{name: "wide-descending", image: tree(reversed), wantList: strings.Join(wideList, ",")},
		{name: "wide-duplicate-across-blocks", image: tree(straddle), wantErr: "duplicate key"},
		// The root claims 2^26 arcs, and 2^26 + 1; the stream holds one (and,
		// in the first, ends there: the root's last two fields are cut off).
		{name: "length-exceeds-stream", image: patch(one[:len(one)-4], []byte{0x0e, 0x02, 0x01}, []byte{0x0e, 0x02, 0x80, 0x80, 0x80, 0x20}), wantErr: "EOF"},
		{name: "length-exceeds-limit", image: patch(one, []byte{0x0e, 0x02, 0x01}, []byte{0x0e, 0x02, 0x81, 0x80, 0x80, 0x20}), wantErr: "exceeds limit"},
		{name: "truncated-mid-arcs", image: one[:len(one)-9], wantErr: "EOF"},
		// dir's own (nil) arcs become a reference to the root's children map,
		// which a map-built tree could resolve and an arc-built one cannot.
		{name: "ref-to-children-map", image: patch(nested, []byte("marker\x03\x02"), []byte("marker\x03\x11\x02")), wantErr: "undefined object 2"},
		{name: "arcs-as-plain-slice", image: patch(one, []byte{0x0e, 0x02, 0x01}, []byte{0x0c, 0x00, 0x0e, 0x02, 0x01}), wantErr: "stream has slice"},
		// A Node where a Tree belongs: every field is skipped, generically,
		// and the skipped map claims 2^26 pairs (the fuzzer's first finding:
		// the skip path sized its result by the claim, 2 GB of it).
		{name: "skipped-map-claims-64M", image: patch(mustMarshal(&Node{Arcs: []Arc{arcOf("only", &Node{})}}), []byte{0x0e, 0x01, 0x01}, []byte{0x0e, 0x01, 0x80, 0x80, 0x80, 0x20}), wantErr: "EOF"},
		// dir is not a node but a reference to the root: a cycle. A pair owns
		// its value, so a reference where one belongs is refused.
		{name: "ref-to-ancestor", image: patch(tree([]Arc{arcOf("dir", nil)}), []byte("dir\x02"), []byte("dir\x11\x01")), wantErr: "owns its value"},
		{name: "not-a-pickle", image: []byte("checkpoint"), wantErr: "bad magic"},
		// Arcs to nil beside leaves that load inline, at the root and below.
		{name: "nil-beside-inline", image: tree([]Arc{arcOf("a", leaf("1")), arcOf("b", nil), arcOf("c", &Node{Arcs: []Arc{arcOf("d", nil), arcOf("e", leaf("5"))}})}), wantList: "a,b,c"},
		// Two arcs to one leaf, which the first would load inline: refused.
		{name: "ref-to-inline-leaf", image: shareArc(tree([]Arc{arcOf("a", leaf("s")), arcOf("b", nil), arcOf("c", nil)}), "a", "c"), wantErr: "owns its value"},
		// A bare path of two plain nodes, which loads inline, beside chains
		// that must stay nodes: to a value led by NUL, through a stamped node.
		{name: "chain", image: tree([]Arc{arcOf("a", &Node{Arcs: []Arc{arcOf("b", &Node{Arcs: []Arc{arcOf("c", leaf("3"))}})}}),
			arcOf("n", &Node{Arcs: []Arc{arcOf("o", leaf("\x00"))}}), arcOf("s", &Node{Arcs: []Arc{arcOf("t", leaf("t"))}, Stamp: 1})}), wantList: "a,n,s"},
		// Labels where the length before them grows to two and three bytes,
		// labels holding NUL and the stamp mark, labels prefixing others.
		{name: "edge-labels", image: mustMarshal(edges), wantList: strings.Join(edgeList, ",")},
	}
}

// checkDecode decodes image into a Tree and requires a typed error (see
// typedDecodeError), or else a tree in which every node's arcs are strictly
// ascending — unique — with no input-only Children, which then answers
// enquiries, takes an update and pickles again without incident (exercise).
// Nothing panics. A pair owns its value, so no image decodes to a graph that
// reaches a node twice, and the walk below returns.
func checkDecode(t *testing.T, image []byte) (*Tree, error) {
	t.Helper()
	var tr Tree
	if err := pickle.Unmarshal(image, &tr); err != nil {
		typedDecodeError(t, image, err)
		return nil, err
	}
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n == nil {
			return // an arc to nil: the image said so, and enquiries treat it as no node
		}
		if n.Children != nil {
			t.Fatal("decoded node holds the input-only Children map")
		}
		arcs := n.AllArcs()
		for i, a := range arcs {
			if i > 0 && arcs[i-1].Label() >= a.Label() {
				t.Fatalf("decoded arcs not strictly ascending at depth %d: %q then %q", depth, arcs[i-1].Label(), a.Label())
			}
			walk(a.Node(), depth+1)
		}
	}
	walk(tr.Root, 0)
	return &tr, nil
}

func exercise(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.Root != nil {
		if err := tr.Enumerate(nil, func(string, string) error { return nil }); err != nil {
			t.Fatalf("Enumerate of a decoded tree: %v", err)
		}
		labels, _ := tr.List(nil)
		d, err := tr.DeltaOf(func(each func(core.Update) error) error { // every name, as a fold carries it
			for _, l := range labels {
				if err := each(&PutSubtree{Path: []string{l}}); err != nil {
					return err
				}
			}
			return each(&SetValue{})
		})
		if err != nil {
			t.Fatalf("DeltaOf of a decoded tree: %v", err)
		}
		if _, err := pickle.Marshal(d); err != nil {
			t.Fatalf("the delta of a decoded tree does not pickle: %v", err)
		}
	}
	if err := (&SetValue{Path: []string{"a", "fuzz"}, Value: "v"}).Apply(tr); err != nil {
		t.Fatalf("SetValue on a decoded tree: %v", err)
	}
	if _, err := pickle.Marshal(tr); err != nil {
		t.Fatalf("decoded tree does not pickle again: %v", err)
	}
}

func TestTreeDecodeSeeds(t *testing.T) {
	for _, s := range decodeSeeds() {
		t.Run(s.name, func(t *testing.T) {
			seedCorpus(t, "FuzzTreeDecode", s.name, s.image)
			var tr *Tree
			var err error
			if grew := allocated(func() { tr, err = checkDecode(t, s.image) }); grew > 1<<20 {
				t.Errorf("decoding %d bytes allocated %d", len(s.image), grew)
			}
			if s.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), s.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, s.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			labels, _ := tr.List(nil)
			if got := strings.Join(labels, ","); got != s.wantList {
				t.Fatalf("root lists %q, want %q", got, s.wantList)
			}
			exercise(t, tr)
		})
	}
	seed := decodeSeeds()
	if nilArcs, empty := seed[5].image, seed[6].image; bytes.Equal(nilArcs, empty) {
		t.Fatal("nil and empty arcs pickle alike; a leaf and an emptied directory must not")
	}
}

// FuzzTreeDecode: no byte string makes loading a checkpoint image panic or
// yields a tree that breaks the sorted-unique invariant.
func FuzzTreeDecode(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s.image)
	}
	f.Fuzz(func(t *testing.T, image []byte) {
		if tr, err := checkDecode(t, image); err == nil {
			exercise(t, tr)
		}
	})
}

// A delta checkpoint's TreeDelta is the other image a Tree loads from: its
// puts carry subtrees, decoded as a checkpoint's are, and ApplyDelta grafts
// them. What must hold of any byte string is stated in checkDelta, and held
// against the committed seeds (TestDeltaDecodeSeeds) and against whatever the
// fuzzer derives from them (FuzzDeltaDecode).

// deltaSeeds builds FuzzDeltaDecode's corpus: one image per op kind, the
// ways ApplyDelta refuses a delta, and the hostile spellings of a put's
// subtree. wantErr is what decoding or applying the image fails with, ""
// for a delta that applies.
func deltaSeeds() []decodeSeed {
	leaf := func(v string) *Node { return &Node{Value: v, HasValue: true} }
	delta := func(ops ...DeltaOp) []byte { return mustMarshal(&TreeDelta{Ops: ops}) }
	put := func(sub *Node, path ...string) DeltaOp { return DeltaOp{Op: DeltaPut, Path: path, Subtree: sub} }
	dir := &Node{Arcs: []Arc{arcOf("p", leaf("1")), arcOf("q", nil)}}
	shared := leaf("s")
	return []decodeSeed{
		{name: "put", image: delta(put(&Node{Arcs: []Arc{arcOf("x", leaf("1")), arcOf("y", &Node{Value: "2", HasValue: true, Stamp: 4, StampBy: "n"})}}, "a", "new"))},
		{name: "delete", image: delta(DeltaOp{Op: DeltaDelete, Path: []string{"a", "b"}})},
		{name: "set", image: delta(DeltaOp{Op: DeltaSet, Path: []string{"a", "c"}, Value: "v", HasValue: true, Stamp: 3, StampBy: "n"})},
		{name: "mixed", image: delta(DeltaOp{Op: DeltaDelete, Path: []string{"d"}}, put(leaf("2"), "d"), DeltaOp{Op: DeltaSet, Path: []string{"e", "f"}, HasValue: true})},
		{name: "put-unsorted-arcs", image: delta(put(&Node{Arcs: []Arc{arcOf("z", leaf("z")), arcOf("m", nil)}}, "a"))},
		{name: "ref-in-arc", image: shareArc(delta(put(dir, "a")), "p", "q"), wantErr: "owns its value"},
		{name: "shared-across-puts", image: delta(put(shared, "a"), put(shared, "b")), wantErr: "reaches a node twice"},
		{name: "put-nil-subtree", image: delta(put(nil, "a")), wantErr: "nil subtree"},
		{name: "put-root", image: delta(put(leaf("r"))), wantErr: "replaces the root"},
		{name: "delete-root", image: delta(DeltaOp{Op: DeltaDelete}), wantErr: "deletes the root"},
		{name: "unknown-op", image: delta(DeltaOp{Op: 9, Path: []string{"a"}}), wantErr: "unknown delta op"},
		{name: "truncated", image: func() []byte { raw := delta(put(dir, "a")); return raw[:len(raw)-3] }(), wantErr: "EOF"},
	}
}

// checkDelta decodes image into a TreeDelta and requires a typed error (see
// typedDecodeError), or else a delta that ApplyDelta onto a small tree either
// refuses or turns into a tree that pickles again. Nothing panics.
func checkDelta(t *testing.T, image []byte) error {
	t.Helper()
	var d TreeDelta
	if err := pickle.Unmarshal(image, &d); err != nil {
		typedDecodeError(t, image, err)
		return err
	}
	tr := NewTree()
	for _, p := range [][]string{{"a", "b"}, {"a", "c"}, {"d"}} {
		if err := (&SetValue{Path: p, Value: "v"}).Apply(tr); err != nil {
			t.Fatal(err)
		}
	}
	tr.SnapshotView()
	if err := tr.ApplyDelta(&d); err != nil {
		return err
	}
	if _, err := pickle.Marshal(tr); err != nil {
		t.Fatalf("the tree a delta applied to does not pickle again: %v", err)
	}
	return nil
}

func TestDeltaDecodeSeeds(t *testing.T) {
	for _, s := range deltaSeeds() {
		t.Run(s.name, func(t *testing.T) {
			seedCorpus(t, "FuzzDeltaDecode", s.name, s.image)
			var err error
			if grew := allocated(func() { err = checkDelta(t, s.image) }); grew > 1<<20 {
				t.Errorf("decoding and applying %d bytes allocated %d", len(s.image), grew)
			}
			if s.wantErr == "" && err != nil || s.wantErr != "" && (err == nil || !strings.Contains(err.Error(), s.wantErr)) {
				t.Fatalf("err = %v, want one containing %q", err, s.wantErr)
			}
		})
	}
}

// FuzzDeltaDecode: no byte string makes loading a delta checkpoint's delta,
// or applying it, panic, and a delta that applies leaves a tree that pickles.
func FuzzDeltaDecode(f *testing.F) {
	for _, s := range deltaSeeds() {
		f.Add(s.image)
	}
	f.Fuzz(func(t *testing.T, image []byte) { checkDelta(t, image) })
}

// Restart reads a checkpoint chain from files: the full image, then each
// delta link on it, each read whole and decoded. FuzzCheckpointChain puts
// the fuzzed bytes in place of either file of a committed directory, and
// requires Open to refuse the directory or serve a name space whose
// enquiries do not panic.

// chainDir builds a committed name-server directory whose chain is a full
// image and one delta link, with a log entry past it, and returns the names
// of the image and the delta.
func chainDir(t testing.TB) (dir *vfs.Mem, image, delta string) {
	t.Helper()
	dir = vfs.NewMem(1)
	ns, err := Open(Config{FS: dir, Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		must(ns.Set(fmt.Sprintf("host/h%d/addr", i), fmt.Sprintf("16.4.0.%d", i)))
	}
	must(ns.Checkpoint())
	must(ns.Set("host/h1/addr", "16.4.0.21"))
	must(ns.Delete("host/h2/addr"))
	must(ns.Checkpoint())
	must(ns.Set("host/h3/addr", "16.4.0.23"))
	chain, err := checkpoint.ChainOf(dir, ns.Store().Version())
	must(err)
	must(ns.Close())
	if len(chain) != 2 {
		t.Fatalf("chain %v: want a full image and one delta", chain)
	}
	return dir, checkpoint.CheckpointName(chain[0]), checkpoint.DeltaName(chain[1])
}

// openWith opens a copy of dir in which file replaces the named file. A
// server it returns has answered a bounded walk of Lookups and Lists.
func openWith(t *testing.T, dir *vfs.Mem, name string, file []byte) (*Server, error) {
	t.Helper()
	fs := dir.CloneSynced()
	if err := vfs.WriteFile(fs, name, file); err != nil {
		t.Fatal(err)
	}
	ns, err := Open(Config{FS: fs, Retain: 1})
	if err != nil {
		return nil, err
	}
	budget := 1000
	var walk func(name string)
	walk = func(name string) {
		if budget--; budget < 0 {
			return
		}
		ns.Lookup(name)
		labels, _ := ns.List(name)
		for _, l := range labels {
			walk(name + "/" + l)
		}
	}
	walk("")
	return ns, nil
}

// TestCheckpointChainSeeds: the committed corpus is the real image and
// delta; each restores the name space in its own place, and in the other's
// the store falls back to the retained version or refuses to open.
func TestCheckpointChainSeeds(t *testing.T) {
	dir, image, delta := chainDir(t)
	files := map[string][]byte{}
	for seed, name := range map[string]string{"image": image, "delta": delta} {
		raw, err := vfs.ReadFile(dir, name)
		if err != nil {
			t.Fatal(err)
		}
		seedCorpus(t, "FuzzCheckpointChain", seed, raw)
		files[name] = raw
	}
	for _, tc := range []struct {
		name     string
		file     []byte
		fallback bool
		wantErr  string
	}{
		{image, files[image], false, ""},
		{delta, files[delta], false, ""},
		{delta, files[image], true, ""},
		{image, files[delta], false, "malformed"},
	} {
		ns, err := openWith(t, dir, tc.name, tc.file)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%d bytes as %s: err = %v, want one containing %q", len(tc.file), tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%d bytes as %s: %v", len(tc.file), tc.name, err)
		}
		if st := ns.Stats(); st.RestartUsedFallback != tc.fallback {
			t.Errorf("%d bytes as %s: fallback %v, want %v", len(tc.file), tc.name, st.RestartUsedFallback, tc.fallback)
		}
		for name, want := range map[string]string{"host/h1/addr": "16.4.0.21", "host/h3/addr": "16.4.0.23", "host/h19/addr": "16.4.0.19"} {
			if got, err := ns.Lookup(name); got != want {
				t.Errorf("%d bytes as %s: %s = %q (%v), want %q", len(tc.file), tc.name, name, got, err, want)
			}
		}
		if _, err := ns.Lookup("host/h2/addr"); err == nil {
			t.Errorf("%d bytes as %s: the deleted name is back", len(tc.file), tc.name)
		}
		ns.Close()
	}
}

// FuzzCheckpointChain: no byte string, as a checkpoint chain's full image or
// its delta link, makes Open or the enquiries on what it serves panic.
func FuzzCheckpointChain(f *testing.F) {
	dir, image, delta := chainDir(f)
	for _, name := range []string{image, delta} {
		raw, err := vfs.ReadFile(dir, name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, file []byte) {
		for _, name := range []string{image, delta} {
			if ns, err := openWith(t, dir, name, file); err == nil {
				ns.Close()
			}
		}
	})
}
