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

	"smalldb/internal/pickle"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzTreeDecode from decodeSeeds")

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

// decodeSeeds builds the corpus. The encoder writes arcs in slice order
// without looking at them, so most hostile images are just the pickles of
// trees the tree's own operations would never build; the rest are patched.
// (Wire tags, from pickle/tags.go: 0x02 nil, 0x0e map, 0x11 ref; the root's
// arcs take identity id 2, after the Tree and the root Node.)
func decodeSeeds() []decodeSeed {
	leaf := func(v string) *Node { return &Node{Value: v, HasValue: true} }
	tree := func(arcs []Arc) []byte { return mustMarshal(&Tree{Root: &Node{Arcs: arcs}}) }
	one := tree([]Arc{{"only", &Node{}}})
	nested := tree([]Arc{{"dir", &Node{Value: "marker"}}})
	return []decodeSeed{
		{name: "ascending", image: tree([]Arc{{"a", leaf("1")}, {"b", leaf("2")}, {"c", &Node{Arcs: []Arc{{"d", leaf("4")}}}}}), wantList: "a,b,c"},
		{name: "descending", image: tree([]Arc{{"c", leaf("3")}, {"b", leaf("2")}, {"a", leaf("1")}}), wantList: "a,b,c"},
		{name: "shuffled-nested", image: tree([]Arc{{"m", &Node{Arcs: []Arc{{"z", leaf("z")}, {"y", leaf("y")}}}}, {"a", leaf("1")}}), wantList: "a,m"},
		{name: "duplicate-adjacent", image: tree([]Arc{{"a", leaf("1")}, {"a", leaf("2")}}), wantErr: "duplicate key"},
		{name: "duplicate-distant", image: tree([]Arc{{"b", leaf("1")}, {"a", leaf("2")}, {"b", leaf("3")}}), wantErr: "duplicate key"},
		{name: "nil-arcs", image: tree(nil), wantList: ""},
		{name: "empty-arcs", image: tree([]Arc{}), wantList: ""},
		{name: "nil-child", image: tree([]Arc{{"a", nil}, {"b", leaf("2")}}), wantList: "a,b"},
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
		{name: "skipped-map-claims-64M", image: patch(mustMarshal(&Node{Arcs: []Arc{{"only", &Node{}}}}), []byte{0x0e, 0x01, 0x01}, []byte{0x0e, 0x01, 0x80, 0x80, 0x80, 0x20}), wantErr: "EOF"},
		// dir is not a node but a reference to the root: a cycle.
		{name: "ref-to-ancestor", image: patch(tree([]Arc{{"dir", nil}}), []byte("dir\x02"), []byte("dir\x11\x01")), wantErr: "shares a node"},
		{name: "not-a-pickle", image: []byte("checkpoint"), wantErr: "bad magic"},
	}
}

// errNotATree: the image decoded, but into a graph that reaches some node
// twice. Pickles preserve pointer identity, so a stream can spell a shared
// subtree or a cycle with a reference where a node belongs; no Tree writes
// one, the map-based tree loaded them just the same, and refusing them is
// for whoever validates checkpoint images as a whole (ROADMAP 5(c)), not for
// the arcs' decode path. The walkers below would not return from a cycle, so
// such an image is checked for its arcs and taken no further.
var errNotATree = errors.New("decoded graph shares a node")

// checkDecode decodes image into a Tree and requires a typed error (a
// *pickle.Error, which is also how pickle reports a stream that ends inside a
// value; only an image that ends before the value starts, at most the magic
// byte, is a bare io.EOF), or else a tree in which every node's arcs are strictly ascending — unique —
// with no input-only Children, which then answers enquiries, takes an update
// and pickles again without incident (exercise). Nothing panics.
func checkDecode(t *testing.T, image []byte) (*Tree, error) {
	t.Helper()
	var tr Tree
	if err := pickle.Unmarshal(image, &tr); err != nil {
		var pe *pickle.Error
		if !errors.As(err, &pe) && !(err == io.EOF && len(image) <= 1) {
			t.Fatalf("decode failed with an untyped error: %T %v", err, err)
		}
		return nil, err
	}
	seen, shared := map[*Node]bool{}, false
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		if n == nil {
			return // an arc to nil: the image said so, and enquiries treat it as no node
		}
		if seen[n] {
			shared = true
			return
		}
		seen[n] = true
		if n.Children != nil {
			t.Fatal("decoded node holds the input-only Children map")
		}
		for i, a := range n.Arcs {
			if i > 0 && n.Arcs[i-1].Label >= a.Label {
				t.Fatalf("decoded arcs not strictly ascending at depth %d: %q then %q", depth, n.Arcs[i-1].Label, a.Label)
			}
			walk(a.Child, depth+1)
		}
	}
	walk(tr.Root, 0)
	if shared {
		return nil, errNotATree
	}
	return &tr, nil
}

func exercise(t *testing.T, tr *Tree) {
	t.Helper()
	if tr.Root != nil {
		if err := tr.Enumerate(nil, func(string, string) error { return nil }); err != nil {
			t.Fatalf("Enumerate of a decoded tree: %v", err)
		}
		if _, err := tr.DeltaSince(NewTree()); err != nil {
			t.Fatalf("DeltaSince of a decoded tree: %v", err)
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
	dir := filepath.Join("testdata", "fuzz", "FuzzTreeDecode")
	for _, s := range decodeSeeds() {
		t.Run(s.name, func(t *testing.T) {
			entry := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(s.image)) + ")\n")
			if *updateCorpus {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, s.name), entry, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if on, err := os.ReadFile(filepath.Join(dir, s.name)); err != nil || !bytes.Equal(on, entry) {
				t.Errorf("committed corpus entry is not this seed (rerun with -update-corpus): %v", err)
			}

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			tr, err := checkDecode(t, s.image)
			runtime.ReadMemStats(&after)
			// However many elements an image claims, decoding allocates in
			// proportion to the bytes it holds.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
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
