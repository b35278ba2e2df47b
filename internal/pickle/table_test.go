package pickle

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// allocTable describes the alloc tests' record: its definition and, since
// its U may hold any registered type, all of theirs. (Built after init has
// registered them.)
func allocTable() *Table { return NewTable(&allocRecord{}) }

func TestTableRoundTrip(t *testing.T) {
	data, err := allocTable().AppendMarshal(nil, allocRec)
	if err != nil {
		t.Fatal(err)
	}
	classic, err := Marshal(allocRec)
	if err != nil {
		t.Fatal(err)
	}
	if !IsTableRelative(data) || IsTableRelative(classic) || len(data) >= len(classic)/2 {
		t.Fatalf("table-relative %d bytes (%x) against %d self-describing", len(data), data, len(classic))
	}
	for _, in := range [][]byte{data, classic} {
		var out allocRecord
		if err := allocTable().Unmarshal(in, &out); err != nil || !reflect.DeepEqual(&out, allocRec) {
			t.Fatalf("decoded %+v: %v", out.U, err)
		}
		v, err := allocTable().UnmarshalAny(in)
		if err != nil || !strings.Contains(Format(v), `(*smalldb/internal/pickle.allocUpdate) &pickle.allocUpdate`) {
			t.Fatalf("generic decode: %s %v", Format(v), err)
		}
	}
	// This process built the table, so a reader handed none finds it.
	var out allocRecord
	if err := Unmarshal(data, &out); err != nil || !reflect.DeepEqual(&out, allocRec) {
		t.Fatalf("Unmarshal without the table: %v", err)
	}
}

func TestTableDeterministicAndParsed(t *testing.T) {
	again := NewTable(&allocRecord{}, &allocUpdate{}, &allocRecord{})
	if !bytes.Equal(again.Bytes(), allocTable().Bytes()) {
		t.Fatal("the same types built different tables")
	}
	parsed, err := ParseTable(allocTable().Bytes())
	if err != nil || !bytes.Equal(parsed.Bytes(), allocTable().Bytes()) || parsed.String() != allocTable().String() {
		t.Fatalf("parse: %v\n%s", err, parsed)
	}
	got := allocTable().String()
	for _, want := range []string{"name 0: *smalldb/internal/pickle.allocUpdate\n", "struct 0: pickle.allocRecord {U}\n", ": pickle.allocUpdate {Path, Value}\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table:\n%slacks %q", got, want)
		}
	}
	data, _ := allocTable().AppendMarshal(nil, allocRec)
	var out allocRecord
	if err := parsed.Unmarshal(data, &out); err != nil || !reflect.DeepEqual(&out, allocRec) {
		t.Fatalf("decode against the parsed table: %v", err)
	}
}

// TestTableFallsBackAndRefuses: a value holding a type the table lacks is
// pickled self-describing; a stream pickled against another table is refused.
func TestTableFallsBackAndRefuses(t *testing.T) {
	partial := NewTable(&inner{})
	data, err := partial.AppendMarshal([]byte("prefix"), allocRec)
	if err != nil || !bytes.HasPrefix(data, []byte("prefix")) || IsTableRelative(data[6:]) {
		t.Fatalf("value with a type the table lacks: %x %v", data, err)
	}
	relative, _ := allocTable().AppendMarshal(nil, allocRec)
	var out allocRecord
	if err := partial.Unmarshal(relative, &out); err == nil || !strings.Contains(err.Error(), "which this reader lacks") {
		t.Fatalf("decode against another table: %v", err)
	}
	var nilTab *Table
	if nilTab.Bytes() != nil {
		t.Fatal("the nil table has bytes")
	}
	if data, err := nilTab.AppendMarshal(nil, allocRec); err != nil || IsTableRelative(data) {
		t.Fatalf("nil table: %x %v", data, err)
	}
}

func TestParseTableRefusesMalformed(t *testing.T) {
	raw := allocTable().Bytes()
	if tab, err := ParseTable(nil); tab != nil || err != nil {
		t.Errorf("ParseTable(nil) = %v, %v", tab, err)
	}
	for _, bad := range [][]byte{
		{},
		raw[:len(raw)-1],
		append(bytes.Clone(raw), 0),
		{0x80, 0x80, 0x80, 0x20}, // 2^26 names, none present
		{0, 0x80, 0x80, 0x04},    // 65536 structs, none present
	} {
		if _, err := ParseTable(bad); err == nil {
			t.Errorf("ParseTable(%x) accepted", bad)
		} else if _, ok := err.(*Error); !ok {
			t.Errorf("ParseTable(%x): untyped %T %v", bad, err, err)
		}
	}
}

func TestTableAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	tab := allocTable()
	buf := make([]byte, 0, 256)
	data, _ := tab.AppendMarshal(nil, allocRec)
	var warm allocRecord
	tab.Unmarshal(data, &warm)
	// As AppendMarshal's and Unmarshal's ceilings in alloc_test.go.
	if allocs := testing.AllocsPerRun(200, func() { tab.AppendMarshal(buf[:0], allocRec) }); allocs > 1 {
		t.Errorf("Table.AppendMarshal(record): %.1f allocs/op, want <= 1", allocs)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		var out allocRecord
		tab.Unmarshal(data, &out)
	}); allocs > 10 {
		t.Errorf("Table.Unmarshal(record): %.1f allocs/op, want <= 10", allocs)
	}
}
