package pickle

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// The map-coded pair slice (MapPair) must be indistinguishable on the wire
// from the string-keyed map it replaces, in both directions. mapDir and
// arcDir are the same directory tree in the two representations, under one
// struct name so that their type definitions pickle alike too.

type mapDir struct {
	Name string
	Kids map[string]*mapDir `pickle:"Kids"`
	N    int
}

type arcDir struct {
	Name string
	Kids []arc `pickle:"Kids"`
	N    int
}

type arc struct {
	Label string
	Dir   *arcDir
}

func (arc) PickleMapPair() {}

// toArcs converts a map-form tree, preserving pointer sharing.
func toArcs(m *mapDir, seen map[*mapDir]*arcDir) *arcDir {
	if m == nil {
		return nil
	}
	if a, ok := seen[m]; ok {
		return a
	}
	a := &arcDir{Name: m.Name, N: m.N}
	seen[m] = a
	if m.Kids != nil {
		a.Kids = []arc{}
		for _, k := range sortedKeys(m.Kids) {
			a.Kids = append(a.Kids, arc{k, toArcs(m.Kids[k], seen)})
		}
	}
	return a
}

func sortedKeys(m map[string]*mapDir) []string {
	v := reflect.ValueOf(m).MapKeys()
	out := make([]string, len(v))
	for i := range v {
		out[i] = v[i].String()
	}
	for i := range out { // insertion sort: tiny inputs
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// marshalAs pickles v with its struct type named name in the stream, so
// the two representations can be compared byte for byte.
func marshalAs(t *testing.T, v any, from, to string) []byte {
	t.Helper()
	raw, err := Marshal(v)
	if err != nil {
		t.Fatalf("Marshal(%T): %v", v, err)
	}
	if len(from) != len(to) {
		t.Fatalf("rename %q -> %q changes the length prefix", from, to)
	}
	return bytes.Replace(raw, []byte(from), []byte(to), 1)
}

// TestPairSliceBytesEqualMap: a map-coded pair slice pickles, and loads, as
// the map it stands for. A pair owns its value, so the map shares none.
func TestPairSliceBytesEqualMap(t *testing.T) {
	twin := func() *mapDir { return &mapDir{Name: "twin", Kids: map[string]*mapDir{}} }
	root := &mapDir{Name: "root", N: 7, Kids: map[string]*mapDir{
		"b":     {Name: "leaf"}, // nil Kids: tNil
		"a":     {Name: "empty", Kids: map[string]*mapDir{}},
		"d":     twin(),
		"c":     {Name: "mid", Kids: map[string]*mapDir{"z": twin(), "y": nil}},
		"":      {Name: "emptylabel"},
		"\xff!": {Name: "highbyte"},
	}}
	want := marshalAs(t, root, "pickle.mapDir", "pickle.arcDir")
	arcs := toArcs(root, map[*mapDir]*arcDir{})
	got, err := Marshal(arcs)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("pair slice pickles differently from the map it stands for:\n got %x\nwant %x", got, want)
	}

	// Each representation reads what the other wrote.
	var back *arcDir
	if err := Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, arcs) {
		t.Fatalf("map stream decoded into arcs:\n got %+v\nwant %+v", back, arcs)
	}
	if back.Kids[1].Dir.Kids == nil || back.Kids[2].Dir.Kids != nil {
		t.Fatal("nil and empty pair slices not kept apart")
	}
	var asMap *mapDir
	if err := Unmarshal(got, &asMap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(asMap, root) {
		t.Fatal("arc stream decoded into the map form differs")
	}
}

// srcDir is an arcDir that may keep its Kids elsewhere, as a MapPairSource.
type srcDir struct {
	Name string
	Kids []arc `pickle:"Kids"`
	N    int

	elsewhere []arc
}

func (d *srcDir) PicklePairs() any {
	if d.elsewhere == nil {
		return nil
	}
	return d.elsewhere
}

// TestPairSourceBytesEqualField: the pairs a MapPairSource keeps elsewhere
// pickle as its empty field would if it held them, whether the struct is
// reached through a pointer or pickled by value; a nil field stays no map;
// and decoding fills the field.
func TestPairSourceBytesEqualField(t *testing.T) {
	kids := []arc{{"a", nil}, {"b", nil}} // no child: its type would be arcDir on both sides
	for _, tc := range []struct {
		src  srcDir
		flat arcDir
	}{
		{srcDir{Name: "dir", Kids: []arc{}, N: 1, elsewhere: kids}, arcDir{Name: "dir", Kids: kids, N: 1}},
		{srcDir{Name: "leaf", elsewhere: kids}, arcDir{Name: "leaf"}},
	} {
		for i, v := range []any{&tc.src, tc.src} {
			got, err := Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			want := marshalAs(t, []any{&tc.flat, tc.flat}[i], "pickle.arcDir", "pickle.srcDir")
			if !bytes.Equal(got, want) {
				t.Fatalf("%s (%T): pickles as\n %x\nnot as its flat form\n %x", tc.src.Name, v, got, want)
			}
		}
	}
	var back srcDir
	if err := Unmarshal(marshalAs(t, &arcDir{Name: "dir", Kids: kids}, "pickle.arcDir", "pickle.srcDir"), &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Kids, kids) || back.elsewhere != nil {
		t.Fatalf("decoded %+v, want the pairs in the field", back)
	}
}

// pairStream hand-builds the pickle of an arcDir whose Kids field holds the
// given raw bytes, so hostile field encodings can be written literally.
func pairStream(kids []byte) []byte {
	s := []byte{magic, tPtr, 0, tStruct, 0}
	s = appendLenPrefixed(s, "pickle.arcDir")
	s = append(s, 3)
	for _, f := range []string{"Name", "Kids", "N"} {
		s = appendLenPrefixed(s, f)
	}
	s = append(s, tString, 0)
	s = append(s, kids...)
	return append(s, tInt, 0)
}

func kidsOf(id uint64, n uint64, labels ...string) []byte {
	s := []byte{tMap}
	s = binary.AppendUvarint(s, id)
	s = binary.AppendUvarint(s, n)
	for _, l := range labels {
		s = append(s, tString)
		s = appendLenPrefixed(s, l)
		s = append(s, tNil)
	}
	return s
}

func TestPairSliceDecodeHostile(t *testing.T) {
	labelsOf := func(d *arcDir) string {
		var ls []string
		for _, a := range d.Kids {
			ls = append(ls, a.Label)
		}
		return strings.Join(ls, ",")
	}
	for _, tc := range []struct {
		name    string
		kids    []byte
		want    string // labels after decode
		wantErr string
	}{
		{"ascending", kidsOf(1, 3, "a", "b", "c"), "a,b,c", ""},
		{"descending", kidsOf(1, 3, "c", "b", "a"), "a,b,c", ""},
		{"shuffled", kidsOf(1, 4, "b", "d", "a", "c"), "a,b,c,d", ""},
		{"adjacent duplicate", kidsOf(1, 2, "a", "a"), "", "duplicate key"},
		{"distant duplicate", kidsOf(1, 3, "b", "a", "b"), "", "duplicate key"},
		{"length exceeds stream", kidsOf(1, MaxElems, "a"), "", "EOF"},
		{"length exceeds limit", kidsOf(1, MaxElems+1), "", "exceeds limit"},
		{"nil", []byte{tNil}, "", ""},
		{"empty", kidsOf(1, 0), "", ""},
		{"plain slice", []byte{tSlice, 0}, "", "stream has slice"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out *arcDir
			raw := pairStream(tc.kids)
			if tc.wantErr == "EOF" {
				raw = raw[:len(raw)-2] // end the stream where the claimed pairs run out
			}
			err := Unmarshal(raw, &out)
			if tc.wantErr != "" {
				// Every failure, a stream that ends inside a value
				// included, is a *Error.
				var pe *Error
				if !errors.As(err, &pe) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want *pickle.Error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := labelsOf(out); got != tc.want {
				t.Fatalf("labels %q, want %q", got, tc.want)
			}
			if isNil := out.Kids == nil; isNil != (tc.name == "nil") {
				t.Fatalf("Kids nil = %v", isNil)
			}
		})
	}
}

// TestPairSliceRefToMap: a map is an identity-table object and a later tRef
// may name it; a pair slice is not, so the reference is refused rather than
// resolved to something that cannot be shared.
func TestPairSliceRefToMap(t *testing.T) {
	// root.Kids = map#1{"a": &#2 arcDir{Kids: ref #1}}
	inner := []byte{tPtr, 2, tStruct, 0, tString, 0, tRef, 1, tInt, 0}
	kids := []byte{tMap, 1, 1, tString, 1, 'a'}
	kids = append(kids, inner...)
	var out *arcDir
	err := Unmarshal(pairStream(kids), &out)
	var pe *Error
	if !errors.As(err, &pe) || !strings.Contains(err.Error(), "undefined object 1") {
		t.Fatalf("tRef to a pair slice's map: err = %v, want *pickle.Error", err)
	}
	// The map form, for contrast, resolves it.
	var m *mapDir
	raw := bytes.Replace(pairStream(kids), []byte("pickle.arcDir"), []byte("pickle.mapDir"), 1)
	if err := Unmarshal(raw, &m); err != nil || m.Kids["a"].Kids["a"] != m.Kids["a"] {
		t.Fatalf("control: map form did not resolve the same stream: %v", err)
	}
}

type badPair struct{ Label, Value, Extra string }

func (badPair) PickleMapPair() {}

func TestPairSliceBadShape(t *testing.T) {
	var pe *Error
	if _, err := Marshal([]badPair{{}}); !errors.As(err, &pe) {
		t.Fatalf("Marshal of a mis-shaped MapPair: %v", err)
	}
	var out []badPair
	if err := Unmarshal([]byte{magic, tMap, 0, 0}, &out); !errors.As(err, &pe) {
		t.Fatalf("Unmarshal into a mis-shaped MapPair: %v", err)
	}
}

// TestPairSliceDecodeAllocs: loading a directory of n arcs costs the slice,
// the labels and the children — no map, no per-entry key/value boxes.
func TestPairSliceDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	const n = 500
	d := &arcDir{Kids: []arc{}}
	for i := 0; i < n; i++ {
		d.Kids = append(d.Kids, arc{Label: string(rune('a'+i/26/26)) + string(rune('a'+i/26%26)) + string(rune('a'+i%26)), Dir: &arcDir{}})
	}
	raw, err := Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var out *arcDir
	allocs := testing.AllocsPerRun(20, func() {
		out = nil
		if err := Unmarshal(raw, &out); err != nil {
			t.Fatal(err)
		}
	})
	// Per arc: one label string, one child. Plus the root, the slice and
	// the identity table's growth.
	if allocs > 2*n+60 {
		t.Errorf("decode of %d arcs: %.0f allocs, want <= %d", n, allocs, 2*n+60)
	}
}

// boxDir is an arcDir whose pairs keep a childless directory of no N unboxed,
// as its name alone: a MapPairInline.
type boxDir struct {
	Name string
	Kids []boxArc `pickle:"Kids"`
	N    int
}

type boxArc struct {
	Label string
	Dir   *boxDir

	name string
}

func (boxArc) PickleMapPair() {}

func (a *boxArc) PickleBox(box any) bool {
	*box.(*boxDir) = boxDir{Name: a.name}
	return a.name != ""
}

func (a *boxArc) PickleUnbox(box any) bool {
	d := box.(*boxDir)
	if d.Kids != nil || d.N != 0 || d.Name == "" {
		return false
	}
	a.name = d.Name
	return true
}

// TestPairInlineBytesEqualBoxed: a pair holding its value unboxed pickles as
// the pointer it stands for and loads unboxed again. A pair owns its value:
// two pairs pointing at one value pickle two copies, and a stream that
// spells a reference where a pair's value belongs is refused, whatever the
// reference names.
func TestPairInlineBytesEqualBoxed(t *testing.T) {
	flat := &arcDir{Name: "root", Kids: []arc{{"a", &arcDir{Name: "leaf"}}, {"b", &arcDir{Name: "kept", N: 1}}, {"c", nil}}}
	want := marshalAs(t, flat, "pickle.arcDir", "pickle.boxDir")
	var back *boxDir
	if err := Unmarshal(want, &back); err != nil {
		t.Fatal(err)
	}
	if k := back.Kids; k[0].Dir != nil || k[0].name != "leaf" || k[1].Dir == nil || k[2].Dir != nil || k[2].name != "" {
		t.Fatalf("loaded %+v: want a unboxed, b boxed, c nil", k)
	}
	if got, err := Marshal(back); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("an unboxed value pickles unlike the pointer it stands for (%v)", err)
	}

	leaf := &arcDir{Name: "leaf"}
	shared, err := Marshal(&arcDir{Kids: []arc{{"a", leaf}, {"b", leaf}}})
	if err != nil {
		t.Fatal(err)
	}
	copies, _ := Marshal(&arcDir{Kids: []arc{{"a", &arcDir{Name: "leaf"}}, {"b", &arcDir{Name: "leaf"}}}})
	if !bytes.Equal(shared, copies) {
		t.Fatalf("two pairs pointing at one value pickle as\n %x\nnot as two copies\n %x", shared, copies)
	}
	// root.Kids = map#1{"a": &#2 arcDir{Name: "leaf"}, "b": ref #2}, and b's
	// reference to the root (#0) and to the map (#1) besides.
	a := []byte{tString, 1, 'a', tPtr, 2, tStruct, 0, tString, 4, 'l', 'e', 'a', 'f', tNil, tInt, 0}
	for _, id := range []byte{2, 0, 1} {
		kids := append(append([]byte{tMap, 1, 2}, a...), tString, 1, 'b', tRef, id)
		for _, into := range []any{new(*arcDir), new(*boxDir)} {
			var pe *Error
			raw := pairStream(kids)
			if _, ok := into.(**boxDir); ok {
				raw = bytes.Replace(raw, []byte("pickle.arcDir"), []byte("pickle.boxDir"), 1)
			}
			if err := Unmarshal(raw, into); !errors.As(err, &pe) || !strings.Contains(err.Error(), "owns its value") {
				t.Errorf("a tRef to #%d as a pair's value, into %T: err = %v, want a *pickle.Error", id, into, err)
			}
		}
	}
}
