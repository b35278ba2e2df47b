//go:build !race

package core

import "testing"

// TestEnquiryAllocs pins the allocation ceiling of the lock-free read
// path: neither a versioned View nor SnapshotAt may allocate at all — a
// snapshot is the published version itself. Race instrumentation adds
// allocations, so this file is excluded from -race runs.
func TestEnquiryAllocs(t *testing.T) {
	s := openVKV(t)
	defer s.Close()
	if err := s.Apply(&putVKV{Key: "k", Value: "v"}); err != nil {
		t.Fatal(err)
	}

	fn := func(root any) error { return nil }
	if n := testing.AllocsPerRun(1000, func() {
		if err := s.View(fn); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("versioned View allocates %.1f objects per call, want 0", n)
	}

	if n := testing.AllocsPerRun(1000, func() {
		if _, err := s.SnapshotAt(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("SnapshotAt allocates %.1f objects per call, want 0", n)
	}
}
