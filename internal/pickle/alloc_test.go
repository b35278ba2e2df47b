package pickle

import (
	"bytes"
	"strings"
	"testing"
)

// The store's hot path pickles a record carrying the update behind an
// interface (core.logRecord) on every commit, and unpickles the same shape
// on every replayed entry at restart. These tests pin alloc ceilings on
// that shape so a regression in the compiled codec plans or the pooled
// encoder/decoder state shows up as a test failure, not a slow restart.

type allocUpdate struct {
	Path  []string
	Value string
}

type allocRecord struct {
	U any
}

func init() {
	Register(&allocUpdate{})
}

var allocRec = &allocRecord{U: &allocUpdate{
	Path:  []string{"usr", "srv", "db"},
	Value: "v42-frontend",
}}

func TestMarshalAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// Warm the plan cache; plan compilation is a one-time cost.
	if _, err := Marshal(allocRec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := Marshal(allocRec); err != nil {
			t.Fatal(err)
		}
	})
	// One alloc for the returned buffer; everything else is pooled.
	if allocs > 2 {
		t.Errorf("Marshal(record): %.1f allocs/op, want <= 2", allocs)
	}
}

func TestAppendMarshalAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	buf := make([]byte, 0, 256)
	if _, err := AppendMarshal(buf, allocRec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := AppendMarshal(buf[:0], allocRec); err != nil {
			t.Fatal(err)
		}
	})
	// With a caller-owned destination even the output buffer is reused.
	if allocs > 1 {
		t.Errorf("AppendMarshal(record): %.1f allocs/op, want <= 1", allocs)
	}
}

type allocBlob struct {
	B []byte
}

// TestAppendMarshalInPlace: a table-relative value larger than the pooled
// scratch buffer may ever grow (maxPooledBuf) pickles straight into a
// caller's buffer with room, so a checkpoint image costs no allocation and
// no copy; and a value the table lacks appends Marshal's bytes after dst.
func TestAppendMarshalInPlace(t *testing.T) {
	tab := NewTable(&allocBlob{})
	var big any = &allocBlob{B: make([]byte, 2*maxPooledBuf)}
	dst := []byte("prefix")
	out, err := tab.AppendMarshal(dst, big)
	if err != nil {
		t.Fatal(err)
	}
	if !IsTableRelative(out[len(dst):]) {
		t.Fatal("blob not pickled against its table")
	}
	var back allocBlob
	if err := tab.Unmarshal(out[len(dst):], &back); err != nil || len(back.B) != 2*maxPooledBuf {
		t.Fatalf("round trip: %d bytes, %v", len(back.B), err)
	}
	if !raceEnabled {
		buf := make([]byte, 0, 2*len(out))
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := tab.AppendMarshal(buf[:len(dst)], big); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("AppendMarshal of a %d-byte value into a buffer with room: %.1f allocs/op, want 0", len(out), allocs)
		}
	}

	// The table lacks allocRecord: the fallback pickles self-describing,
	// after dst and nothing else.
	fallback, err := tab.AppendMarshal(dst, allocRec)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Marshal(allocRec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fallback, append([]byte("prefix"), want...)) {
		t.Errorf("fallback appended %x, want prefix then %x", fallback, want)
	}
}

func TestUnmarshalAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	data, err := Marshal(allocRec)
	if err != nil {
		t.Fatal(err)
	}
	var warm allocRecord
	if err := Unmarshal(data, &warm); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		var out allocRecord
		if err := Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
	})
	// The decoded value itself costs allocations (concrete update, path
	// slice, four strings); the decoder machinery must add almost nothing
	// on top. The seed decoder spent 13 allocs on a two-field struct.
	if allocs > 10 {
		t.Errorf("Unmarshal(record): %.1f allocs/op, want <= 10", allocs)
	}
}

func BenchmarkUnmarshalLargeMap(b *testing.B) {
	m := make(map[string]string, 1000)
	for i := 0; i < 1000; i++ {
		m[strings.Repeat("k", 8)+string(rune('a'+i%26))+string(rune('0'+i%10))+string(rune('0'+(i/10)%10))+string(rune('0'+(i/100)%10))] = strings.Repeat("v", 32)
	}
	data, err := Marshal(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var out map[string]string
		if err := Unmarshal(data, &out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalStructKeyedMap exercises the compiled key comparer: a
// checkpoint-style map whose keys sort through field-by-field comparison
// rather than the string fast path.
func BenchmarkMarshalStructKeyedMap(b *testing.B) {
	type key struct {
		Host string
		Port int
	}
	m := make(map[key]string, 500)
	for i := 0; i < 500; i++ {
		m[key{Host: strings.Repeat("h", 6) + string(rune('a'+i%26)), Port: i}] = "addr"
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Marshal(m); err != nil {
			b.Fatal(err)
		}
	}
}
