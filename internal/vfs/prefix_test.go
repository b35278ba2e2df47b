package vfs

import (
	"reflect"
	"testing"
)

func TestPrefixedListFiltersAndStrips(t *testing.T) {
	m := NewMem(1)
	for _, n := range []string{"a-x", "a-y", "b-x", "ax", "a"} {
		if err := WriteFile(m, n, []byte(n)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := NewPrefixed(m, "a-").List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"x", "y"}; !reflect.DeepEqual(got, want) {
		t.Errorf("List = %v, want %v", got, want)
	}
	if got, _ := NewPrefixed(m, "c-").List(); len(got) != 0 {
		t.Errorf("empty view lists %v", got)
	}
}

func TestPrefixedRenameStaysInsidePrefix(t *testing.T) {
	m := NewMem(1)
	a := NewPrefixed(m, "a-")
	if err := WriteFile(a, "x", []byte("ax")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(m, "b-x", []byte("bx")); err != nil {
		t.Fatal(err)
	}
	if err := a.Rename("x", "z"); err != nil {
		t.Fatal(err)
	}
	names, _ := m.List()
	if want := []string{"a-z", "b-x"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("underlying names = %v, want %v", names, want)
	}
	if data, err := ReadFile(a, "z"); err != nil || string(data) != "ax" {
		t.Errorf("renamed file = %q, %v", data, err)
	}
	if _, err := a.Stat("x"); err == nil {
		t.Error("old name still exists in the view")
	}
	if err := a.Remove("z"); err != nil {
		t.Fatal(err)
	}
	if data, err := ReadFile(m, "b-x"); err != nil || string(data) != "bx" {
		t.Errorf("other prefix's file = %q, %v", data, err)
	}
}

func TestPrefixedCrashLosesUnsynced(t *testing.T) {
	m := NewMem(1)
	a := NewPrefixed(m, "a-")
	if err := WriteFile(a, "durable", []byte("kept")); err != nil {
		t.Fatal(err)
	}
	f, err := a.Append("durable")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(" and lost")); err != nil {
		t.Fatal(err)
	}
	f.Close()
	f, err = a.Create("never-synced")
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("gone"))
	f.Close()

	m.Crash()
	if data, err := ReadFile(a, "durable"); err != nil || string(data) != "kept" {
		t.Errorf("after crash durable = %q, %v; want %q", data, err, "kept")
	}
	if size, err := a.Stat("never-synced"); err != nil || size != 0 {
		t.Errorf("after crash never-synced has %d bytes (%v); want empty", size, err)
	}
}
