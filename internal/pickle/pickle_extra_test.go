package pickle

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// Embedded and anonymous struct fields.
type base struct {
	ID int
}

type derived struct {
	base // embedded: exported promoted field must round-trip
	Name string
}

func TestEmbeddedStructs(t *testing.T) {
	// The embedded field "base" is an unexported *field name* in Go
	// reflect terms (PkgPath set for lowercase type), so it is skipped;
	// an exported embedded type round-trips.
	type Base struct{ ID int }
	type Derived struct {
		Base
		Name string
	}
	in := Derived{Base: Base{ID: 7}, Name: "x"}
	var out Derived
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID != 7 || out.Name != "x" {
		t.Errorf("got %+v", out)
	}

	// Lowercase embedded type: skipped without error.
	in2 := derived{base: base{ID: 9}, Name: "y"}
	data2, err := Marshal(in2)
	if err != nil {
		t.Fatal(err)
	}
	var out2 derived
	if err := Unmarshal(data2, &out2); err != nil {
		t.Fatal(err)
	}
	if out2.Name != "y" || out2.ID != 0 {
		t.Errorf("got %+v", out2)
	}
}

func TestDeepNesting(t *testing.T) {
	type leaf struct{ V int }
	in := map[string][]map[int][]*leaf{
		"a": {
			{1: {{V: 10}, nil, {V: 11}}},
			{2: {}},
		},
		"b": nil,
	}
	var out map[string][]map[int][]*leaf
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("deep structure mangled:\n in: %#v\nout: %#v", in, out)
	}
}

func TestDifferentNamedTypesSameShape(t *testing.T) {
	// Struct matching is by field names, so renaming the Go type is a
	// compatible schema change.
	type V1 struct{ A, B string }
	type V2Renamed struct{ A, B string }
	data, err := Marshal(V1{A: "a", B: "b"})
	if err != nil {
		t.Fatal(err)
	}
	var out V2Renamed
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.A != "a" || out.B != "b" {
		t.Errorf("got %+v", out)
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("write exploded")
	}
	w.after -= len(p)
	return len(p), nil
}

func TestEncoderWriteErrors(t *testing.T) {
	// A write error at any point must surface and stick.
	for after := 0; after < 40; after += 3 {
		w := &failingWriter{after: after}
		enc := NewEncoder(w)
		err := enc.Encode(outer{Name: "x", Tags: []string{"a", "b"}, Attrs: map[string]string{"k": "v"}})
		if err == nil {
			continue // wrote fully within budget
		}
		// Sticky: the next Encode fails immediately.
		if err2 := enc.Encode(1); err2 == nil {
			t.Fatalf("after=%d: error not sticky", after)
		}
	}
}

func TestInterfaceInsideMapAndSlice(t *testing.T) {
	in := map[string]shape{
		"r": rect{W: 3, H: 4},
		"c": &circle{R: 2},
	}
	var out map[string]shape
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out["r"].Area() != 12 || out["c"].Area() != 12 {
		t.Errorf("areas: %v %v", out["r"].Area(), out["c"].Area())
	}
}

func TestSharedPointerAcrossInterfaceAndDirect(t *testing.T) {
	// The same *circle reachable both directly and through an interface
	// keeps its identity.
	c := &circle{R: 1}
	type holder struct {
		Direct *circle
		Iface  shape
	}
	pickleOnce := func() (*holder, error) {
		data, err := Marshal(&holder{Direct: c, Iface: c})
		if err != nil {
			return nil, err
		}
		var out holder
		if err := Unmarshal(data, &out); err != nil {
			return nil, err
		}
		return &out, nil
	}
	out, err := pickleOnce()
	if err != nil {
		t.Fatal(err)
	}
	if out.Iface.(*circle) != out.Direct {
		t.Error("pointer identity across interface boundary lost")
	}
}

// Decoding random bytes must never panic and must terminate.
func TestDecodeRandomBytesNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	targets := []func() any{
		func() any { return new(int) },
		func() any { return new(string) },
		func() any { return new([]string) },
		func() any { return new(map[string]int) },
		func() any { return new(outer) },
		func() any { return new(*listNode) },
		func() any { return new(any) },
	}
	for i := 0; i < 3000; i++ {
		n := rng.Intn(60)
		buf := make([]byte, n+1)
		buf[0] = magic // let it past the header so tag parsing is hit
		rng.Read(buf[1:])
		tgt := targets[i%len(targets)]()
		_ = Unmarshal(buf, tgt) // must not panic
	}
}

// Mutating valid pickles must never panic the generic decoder either.
func TestGenericDecodeFuzzedStream(t *testing.T) {
	good, err := Marshal(outer{
		Name:     "g",
		Inner:    inner{Label: "l"},
		InnerPtr: &inner{N: 2},
		Tags:     []string{"t"},
		Attrs:    map[string]string{"k": "v"},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		mut := append([]byte(nil), good...)
		for j := 0; j < 1+rng.Intn(3); j++ {
			mut[rng.Intn(len(mut))] ^= byte(1 + rng.Intn(255))
		}
		dec := NewDecoder(bytes.NewReader(mut))
		v, err := dec.DecodeAny()
		if err == nil {
			_ = Format(v) // and formatting must not panic
		}
	}
}

func TestBinaryMarshalerTypes(t *testing.T) {
	// time.Time implements BinaryMarshaler/Unmarshaler: it must
	// round-trip exactly, including the monotonic-stripped wall clock
	// and location.
	type event struct {
		Name string
		At   time.Time
		Prev *time.Time
	}
	at := time.Date(1987, time.November, 8, 12, 30, 45, 123456789, time.UTC)
	prev := at.Add(-24 * time.Hour)
	in := event{Name: "sosp", At: at, Prev: &prev}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out event
	if err := Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.At.Equal(at) || out.Prev == nil || !out.Prev.Equal(prev) {
		t.Errorf("times mangled: %v %v", out.At, out.Prev)
	}
	if out.Name != "sosp" {
		t.Errorf("Name = %q", out.Name)
	}

	// Maps keyed or valued by time.Time work too.
	m := map[string]time.Time{"t": at}
	var mOut map[string]time.Time
	data2, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := Unmarshal(data2, &mOut); err != nil {
		t.Fatal(err)
	}
	if !mOut["t"].Equal(at) {
		t.Errorf("map time mangled: %v", mOut["t"])
	}
}

func TestMultipleValuesShareTypeTable(t *testing.T) {
	// The second encoding of the same struct type must be smaller than
	// the first (no repeated type definition).
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Encode(inner{Label: "aaaa", N: 1})
	first := buf.Len()
	enc.Encode(inner{Label: "aaaa", N: 2})
	second := buf.Len() - first
	if second >= first {
		t.Errorf("type table not shared: first=%d second=%d", first, second)
	}
}

// Property: pointer graphs with random sharing round-trip isomorphically.
func TestQuickSharedGraph(t *testing.T) {
	type node struct {
		V    int
		Next *node
	}
	// quick can't generate cyclic graphs; build them from a random spec.
	f := func(edges []uint8, vals []int8) bool {
		n := len(vals)
		if n == 0 || n > 20 {
			return true
		}
		nodes := make([]*node, n)
		for i := range nodes {
			nodes[i] = &node{V: int(vals[i])}
		}
		for i, e := range edges {
			if i >= n {
				break
			}
			nodes[i].Next = nodes[int(e)%n] // arbitrary, possibly cyclic
		}
		data, err := Marshal(nodes)
		if err != nil {
			return false
		}
		var out []*node
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		if len(out) != n {
			return false
		}
		// Isomorphism: same values, and identical sharing pattern.
		index := map[*node]int{}
		for i, p := range nodes {
			index[p] = i
		}
		outIndex := map[*node]int{}
		for i, p := range out {
			if p.V != nodes[i].V {
				return false
			}
			outIndex[p] = i
		}
		for i := range nodes {
			if nodes[i].Next == nil {
				if out[i].Next != nil {
					return false
				}
				continue
			}
			wantTarget, ok := index[nodes[i].Next]
			if !ok {
				continue
			}
			if out[i].Next != out[wantTarget] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPooledCodersDropOvergrownMaps: a pooled decoder or encoder that just
// handled a value of 100 000 shared objects drops its identity map on the
// way back to the pool instead of clearing it — clear is O(capacity), and
// every small value after it would pay for the large one — while a small
// value's map is kept for reuse.
func TestPooledCodersDropOvergrownMaps(t *testing.T) {
	big := make([]*int, 100000)
	for i := range big {
		big[i] = new(int)
	}
	small := []*int{new(int)}
	for _, v := range []struct {
		val  []*int
		kept bool
	}{{big, false}, {small, true}} {
		data, err := Marshal(v.val)
		if err != nil {
			t.Fatal(err)
		}
		d := &Decoder{data: data}
		var out []*int
		if err := d.Decode(&out); err != nil || len(d.refs) != len(v.val) {
			t.Fatalf("decoded %d refs: %v", len(d.refs), err)
		}
		putDecoder(d)
		if kept := d.refs != nil; kept != v.kept {
			t.Errorf("decoder after %d refs: map kept = %v", len(v.val), kept)
		}
		e := getEncoder()
		if err := e.Encode(v.val); err != nil || len(e.refs) != len(v.val) {
			t.Fatalf("encoded %d refs: %v", len(e.refs), err)
		}
		putEncoder(e)
		if kept := e.refs != nil; kept != v.kept {
			t.Errorf("encoder after %d refs: map kept = %v", len(v.val), kept)
		}
	}
}
