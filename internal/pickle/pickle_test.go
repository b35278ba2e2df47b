package pickle

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func roundTrip(t *testing.T, in, out any) {
	t.Helper()
	data, err := Marshal(in)
	if err != nil {
		t.Fatalf("Marshal(%#v): %v", in, err)
	}
	if err := Unmarshal(data, out); err != nil {
		t.Fatalf("Unmarshal(%#v): %v", in, err)
	}
}

func TestScalars(t *testing.T) {
	cases := []any{
		true, false,
		int(42), int(-42), int8(-7), int16(300), int32(-70000), int64(1 << 60),
		uint(9), uint8(255), uint16(65535), uint32(1 << 30), uint64(1 << 63),
		float32(3.5), float64(-2.25), math.Pi,
		complex(1.5, -2.5),
		"hello", "", "日本語",
	}
	for _, in := range cases {
		out := reflect.New(reflect.TypeOf(in))
		roundTrip(t, in, out.Interface())
		if got := out.Elem().Interface(); !reflect.DeepEqual(got, in) {
			t.Errorf("round trip %#v: got %#v", in, got)
		}
	}
}

func TestFloatSpecials(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64, -0.0} {
		var out float64
		roundTrip(t, f, &out)
		if out != f && !(f == 0 && out == 0) {
			t.Errorf("float %v round-tripped to %v", f, out)
		}
	}
	var nan float64
	roundTrip(t, math.NaN(), &nan)
	if !math.IsNaN(nan) {
		t.Errorf("NaN round-tripped to %v", nan)
	}
}

func TestSlicesAndArrays(t *testing.T) {
	var ints []int
	roundTrip(t, []int{1, 2, 3}, &ints)
	if !reflect.DeepEqual(ints, []int{1, 2, 3}) {
		t.Errorf("got %v", ints)
	}

	var nilSlice []string
	roundTrip(t, []string(nil), &nilSlice)
	if nilSlice != nil {
		t.Errorf("nil slice decoded non-nil: %v", nilSlice)
	}

	var empty []string
	roundTrip(t, []string{}, &empty)
	if empty == nil || len(empty) != 0 {
		t.Errorf("empty slice decoded as %#v", empty)
	}

	var bs []byte
	roundTrip(t, []byte{0, 1, 2, 255}, &bs)
	if !bytes.Equal(bs, []byte{0, 1, 2, 255}) {
		t.Errorf("got %v", bs)
	}

	var arr [3]string
	roundTrip(t, [3]string{"a", "b", "c"}, &arr)
	if arr != [3]string{"a", "b", "c"} {
		t.Errorf("got %v", arr)
	}

	var nested [][]int
	roundTrip(t, [][]int{{1}, nil, {2, 3}}, &nested)
	if !reflect.DeepEqual(nested, [][]int{{1}, nil, {2, 3}}) {
		t.Errorf("got %v", nested)
	}
}

func TestStringByteCrossDecode(t *testing.T) {
	// A string may be decoded into []byte and vice versa; useful when a
	// field's type is migrated.
	var b []byte
	roundTrip(t, "abc", &b)
	if string(b) != "abc" {
		t.Errorf("got %q", b)
	}
	var s string
	roundTrip(t, []byte("xyz"), &s)
	if s != "xyz" {
		t.Errorf("got %q", s)
	}
}

func TestMaps(t *testing.T) {
	in := map[string]int{"a": 1, "b": 2, "c": 3}
	var out map[string]int
	roundTrip(t, in, &out)
	if !reflect.DeepEqual(in, out) {
		t.Errorf("got %v", out)
	}

	var nilMap map[string]int
	roundTrip(t, map[string]int(nil), &nilMap)
	if nilMap != nil {
		t.Errorf("nil map decoded non-nil")
	}

	deep := map[string]map[string]bool{"x": {"y": true}, "z": nil}
	var deepOut map[string]map[string]bool
	roundTrip(t, deep, &deepOut)
	if !reflect.DeepEqual(deep, deepOut) {
		t.Errorf("got %v", deepOut)
	}

	intKeys := map[int][]string{-1: {"neg"}, 7: {"seven"}}
	var intOut map[int][]string
	roundTrip(t, intKeys, &intOut)
	if !reflect.DeepEqual(intKeys, intOut) {
		t.Errorf("got %v", intOut)
	}
}

func TestMapDeterminism(t *testing.T) {
	m := map[string]int{}
	for _, k := range []string{"q", "a", "zz", "m", "b", "c", "d", "e", "f", "g"} {
		m[k] = len(k)
	}
	first, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		again, err := Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, again) {
			t.Fatalf("map pickling not deterministic on attempt %d", i)
		}
	}
}

type inner struct {
	Label string
	N     int
}

type outer struct {
	Name     string
	Count    int64
	Ratio    float64
	Inner    inner
	InnerPtr *inner
	Tags     []string
	Attrs    map[string]string
	hidden   int    // unexported: not pickled
	Skipped  string `pickle:"-"`
	Renamed  string `pickle:"alias"`
}

func TestStructs(t *testing.T) {
	in := outer{
		Name:     "db",
		Count:    99,
		Ratio:    0.5,
		Inner:    inner{Label: "in", N: 3},
		InnerPtr: &inner{Label: "ptr", N: 4},
		Tags:     []string{"t1", "t2"},
		Attrs:    map[string]string{"k": "v"},
		hidden:   7,
		Skipped:  "nope",
		Renamed:  "alias-value",
	}
	var out outer
	roundTrip(t, in, &out)
	if out.hidden != 0 || out.Skipped != "" {
		t.Errorf("unexported/skipped fields leaked: %+v", out)
	}
	in.hidden, in.Skipped = 0, ""
	if !reflect.DeepEqual(in, out) {
		t.Errorf("got %+v want %+v", out, in)
	}
}

func TestPointerSharing(t *testing.T) {
	shared := &inner{Label: "shared", N: 1}
	in := []*inner{shared, shared, {Label: "other", N: 2}, shared}
	var out []*inner
	roundTrip(t, in, &out)
	if len(out) != 4 {
		t.Fatalf("len %d", len(out))
	}
	if out[0] != out[1] || out[1] != out[3] {
		t.Errorf("shared pointer identity lost")
	}
	if out[0] == out[2] {
		t.Errorf("distinct pointers merged")
	}
	if out[0].Label != "shared" || out[2].Label != "other" {
		t.Errorf("values wrong: %+v", out)
	}
}

type listNode struct {
	Val  int
	Next *listNode
}

func TestCycle(t *testing.T) {
	a := &listNode{Val: 1}
	b := &listNode{Val: 2, Next: a}
	a.Next = b // a -> b -> a
	var out *listNode
	roundTrip(t, a, &out)
	if out.Val != 1 || out.Next.Val != 2 {
		t.Fatalf("values wrong")
	}
	if out.Next.Next != out {
		t.Errorf("cycle not preserved")
	}
}

func TestSharedMapIdentity(t *testing.T) {
	m := map[string]int{"x": 1}
	in := []map[string]int{m, m}
	var out []map[string]int
	roundTrip(t, in, &out)
	out[0]["y"] = 2
	if out[1]["y"] != 2 {
		t.Errorf("map identity lost: %v %v", out[0], out[1])
	}
}

type shape interface{ Area() float64 }

type rect struct{ W, H float64 }

func (r rect) Area() float64 { return r.W * r.H }

type circle struct{ R float64 }

func (c *circle) Area() float64 { return 3 * c.R * c.R }

func init() {
	Register(rect{})
	Register(&circle{})
}

func TestInterfaces(t *testing.T) {
	in := []shape{rect{W: 2, H: 3}, &circle{R: 1}, nil}
	var out []shape
	roundTrip(t, in, &out)
	if len(out) != 3 {
		t.Fatalf("len %d", len(out))
	}
	if out[0].Area() != 6 {
		t.Errorf("rect area %v", out[0].Area())
	}
	if out[1].Area() != 3 {
		t.Errorf("circle area %v", out[1].Area())
	}
	if out[2] != nil {
		t.Errorf("nil interface decoded non-nil")
	}
}

func TestUnregisteredInterface(t *testing.T) {
	type secret struct{ X int }
	in := []any{secret{X: 1}}
	if _, err := Marshal(in); err == nil {
		t.Fatal("expected error pickling unregistered concrete type")
	} else if !strings.Contains(err.Error(), "unregistered") {
		t.Fatalf("wrong error: %v", err)
	}
}

type v1Record struct {
	Name string
	Age  int
}

type v2Record struct {
	Name    string
	Age     int
	Address string // new field
}

type v2RecordDropped struct {
	Name string
	// Age removed
}

func TestSchemaEvolution(t *testing.T) {
	data, err := Marshal(v1Record{Name: "n", Age: 30})
	if err != nil {
		t.Fatal(err)
	}
	var grew v2Record
	if err := Unmarshal(data, &grew); err != nil {
		t.Fatalf("decode into grown struct: %v", err)
	}
	if grew.Name != "n" || grew.Age != 30 || grew.Address != "" {
		t.Errorf("got %+v", grew)
	}

	data2, err := Marshal(v2Record{Name: "m", Age: 40, Address: "somewhere"})
	if err != nil {
		t.Fatal(err)
	}
	var shrunk v2RecordDropped
	if err := Unmarshal(data2, &shrunk); err != nil {
		t.Fatalf("decode into shrunk struct: %v", err)
	}
	if shrunk.Name != "m" {
		t.Errorf("got %+v", shrunk)
	}
}

func TestSkippedFieldWithSharedPointer(t *testing.T) {
	// A struct whose skipped (unknown-to-target) field contains pointers
	// must still decode cleanly.
	type rich struct {
		Keep  string
		Extra []*inner
	}
	type lean struct {
		Keep string
	}
	shared := &inner{Label: "s"}
	data, err := Marshal(rich{Keep: "k", Extra: []*inner{shared, shared}})
	if err != nil {
		t.Fatal(err)
	}
	var out lean
	if err := Unmarshal(data, &out); err != nil {
		t.Fatalf("decode skipping pointer field: %v", err)
	}
	if out.Keep != "k" {
		t.Errorf("got %+v", out)
	}
}

func TestPointerLevelTolerance(t *testing.T) {
	// Writer passed &x, reader passes &x too (target is the struct).
	data, err := Marshal(&inner{Label: "p", N: 1})
	if err != nil {
		t.Fatal(err)
	}
	var flat inner
	if err := Unmarshal(data, &flat); err != nil {
		t.Fatalf("ptr stream into struct target: %v", err)
	}
	if flat.Label != "p" {
		t.Errorf("got %+v", flat)
	}

	// Writer passed x, reader wants a pointer target.
	data2, err := Marshal(inner{Label: "v", N: 2})
	if err != nil {
		t.Fatal(err)
	}
	var viaPtr *inner
	if err := Unmarshal(data2, &viaPtr); err != nil {
		t.Fatalf("struct stream into pointer target: %v", err)
	}
	if viaPtr == nil || viaPtr.Label != "v" {
		t.Errorf("got %+v", viaPtr)
	}

	// Deep mismatch: a **T stream into a T target.
	x := &inner{Label: "deep", N: 3}
	data3, err := Marshal(&x)
	if err != nil {
		t.Fatal(err)
	}
	var deep inner
	if err := Unmarshal(data3, &deep); err != nil {
		t.Fatalf("double-ptr stream into struct target: %v", err)
	}
	if deep.Label != "deep" {
		t.Errorf("got %+v", deep)
	}
}

func TestTypeMismatch(t *testing.T) {
	data, err := Marshal("a string")
	if err != nil {
		t.Fatal(err)
	}
	var n int
	if err := Unmarshal(data, &n); err == nil {
		t.Fatal("expected mismatch error")
	}
}

func TestOverflow(t *testing.T) {
	data, err := Marshal(int64(1 << 40))
	if err != nil {
		t.Fatal(err)
	}
	var small int8
	if err := Unmarshal(data, &small); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestDecodeTargetErrors(t *testing.T) {
	data, _ := Marshal(1)
	if err := Unmarshal(data, 1); err == nil {
		t.Error("expected error for non-pointer target")
	}
	var p *int
	if err := Unmarshal(data, p); err == nil {
		t.Error("expected error for nil pointer target")
	}
}

func TestCorruptStreams(t *testing.T) {
	good, err := Marshal(outer{Name: "x", Tags: []string{"a"}, Attrs: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(good); n++ {
		var out outer
		if err := Unmarshal(good[:n], &out); err == nil {
			t.Errorf("truncation at %d decoded without error", n)
		}
	}
	// Single-byte corruptions must error or decode to *something*, never
	// panic or hang.
	for i := 0; i < len(good); i++ {
		mut := append([]byte(nil), good...)
		mut[i] ^= 0xFF
		var out outer
		_ = Unmarshal(mut, &out)
	}
}

// TestMidValueEOF: a stream that ends inside a value is malformed, a
// *Error, from Unmarshal and UnmarshalAny alike; io.EOF is only for a stream that ends before a value starts.
func TestMidValueEOF(t *testing.T) {
	good, err := Marshal(outer{Name: "x", Tags: []string{"a"}, Attrs: map[string]string{"k": "v"}})
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(good); n++ {
		cut := good[:n]
		var out outer
		_, anyErr := UnmarshalAny(cut)
		for path, err := range map[string]error{
			"Unmarshal":    Unmarshal(cut, &out),
			"UnmarshalAny": anyErr,
		} {
			var pe *Error
			if n <= 1 { // nothing, or the magic byte alone: no value started
				if err != io.EOF {
					t.Errorf("%s of %d bytes: %v, want io.EOF", path, n, err)
				}
			} else if !errors.As(err, &pe) {
				t.Errorf("%s cut at %d: %T %v, want *pickle.Error", path, n, err, err)
			}
		}
	}
}

func TestBadMagic(t *testing.T) {
	var out int
	if err := Unmarshal([]byte{0x00, tInt, 2}, &out); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("expected magic error, got %v", err)
	}
}

func TestHostileLengths(t *testing.T) {
	// A stream claiming a huge string must be rejected before allocation.
	buf := []byte{magic, tString, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}
	var s string
	if err := Unmarshal(buf, &s); err == nil {
		t.Fatal("expected length-limit error")
	}
}

func TestDepthLimit(t *testing.T) {
	// Build a linear chain of pointers deeper than MaxDepth.
	head := &listNode{}
	cur := head
	for i := 0; i < MaxDepth+10; i++ {
		cur.Next = &listNode{Val: i}
		cur = cur.Next
	}
	if _, err := Marshal(head); err == nil {
		t.Fatal("expected depth error on encode")
	}
}

func TestGenericDecode(t *testing.T) {
	in := outer{
		Name:    "g",
		Count:   5,
		Inner:   inner{Label: "i", N: 1},
		Tags:    []string{"a", "b"},
		Attrs:   map[string]string{"k": "v"},
		Renamed: "r",
	}
	data, err := Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	v, err := UnmarshalAny(data)
	if err != nil {
		t.Fatal(err)
	}
	gs, ok := v.(GenericStruct)
	if !ok {
		t.Fatalf("got %T", v)
	}
	byName := map[string]any{}
	for _, f := range gs.Fields {
		byName[f.Name] = f.Value
	}
	if byName["Name"] != "g" {
		t.Errorf("Name = %v", byName["Name"])
	}
	if byName["Count"] != int64(5) {
		t.Errorf("Count = %v (%T)", byName["Count"], byName["Count"])
	}
	if _, ok := byName["alias"]; !ok {
		t.Errorf("renamed field missing: %v", byName)
	}
	text := Format(v)
	if !strings.Contains(text, "Name") || !strings.Contains(text, `"g"`) {
		t.Errorf("Format output missing fields: %s", text)
	}
}

func TestFormatCycle(t *testing.T) {
	a := &listNode{Val: 1}
	a.Next = a
	data, err := Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	v, err := UnmarshalAny(data)
	if err != nil {
		t.Fatal(err)
	}
	text := Format(v)
	if !strings.Contains(text, "<cycle>") {
		t.Errorf("cycle not detected in %s", text)
	}
}

func TestRegisterConflicts(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on conflicting registration")
		}
	}()
	RegisterName("pickleconflict", rect{})
	RegisterName("pickleconflict", inner{})
}

// Property: any value built from quick-generatable primitives round-trips.
func TestQuickRoundTrip(t *testing.T) {
	type blob struct {
		B  bool
		I  int64
		U  uint32
		F  float64
		S  string
		Bs []byte
		M  map[string]int32
		L  []string
	}
	f := func(in blob) bool {
		var out blob
		data, err := Marshal(in)
		if err != nil {
			return false
		}
		if err := Unmarshal(data, &out); err != nil {
			return false
		}
		// Normalise nil/empty distinctions quick doesn't care about.
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string) bool {
		var out string
		data, err := Marshal(s)
		if err != nil {
			return false
		}
		return Unmarshal(data, &out) == nil && out == s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickMapDeterminism(t *testing.T) {
	f := func(m map[int16]string) bool {
		a, err := Marshal(m)
		if err != nil {
			return false
		}
		b, err := Marshal(m)
		if err != nil {
			return false
		}
		return bytes.Equal(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshalSmallStruct(b *testing.B) {
	in := inner{Label: "label", N: 42}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(in); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalSmallStruct(b *testing.B) {
	data, err := Marshal(inner{Label: "label", N: 42})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out inner
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalLargeMap(b *testing.B) {
	m := make(map[string]string, 1000)
	for i := 0; i < 1000; i++ {
		m[strings.Repeat("k", 8)+string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune('0'+(i/10)%10))+string(rune('0'+(i/100)%10))] = strings.Repeat("v", 32)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}
