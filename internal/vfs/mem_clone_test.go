package vfs

import (
	"errors"
	"io"
	"testing"
)

// TestCloneSyncedIsDurableView checks that a clone holds exactly the synced
// state: synced data present, unsynced data and never-synced files gone.
func TestCloneSyncedIsDurableView(t *testing.T) {
	m := NewMem(1)
	if err := WriteFile(m, "a", []byte("durable")); err != nil {
		t.Fatal(err)
	}
	f, _ := m.OpenRW("a")
	f.WriteAt([]byte("-unsynced"), 7)
	f.Close()
	g, _ := m.Create("never-synced")
	g.Write([]byte("x"))
	g.Close()

	c := m.CloneSynced()
	data, err := ReadFile(c, "a")
	if err != nil || string(data) != "durable" {
		t.Fatalf("clone a = %q, %v; want %q", data, err, "durable")
	}
	// Directory metadata is durable immediately: the file exists in the
	// clone, but its never-synced content does not.
	if data, err := ReadFile(c, "never-synced"); err != nil || len(data) != 0 {
		t.Errorf("never-synced in clone = %q, %v; want empty", data, err)
	}
	// The parent still sees its unsynced data.
	data, err = ReadFile(m, "a")
	if err != nil || string(data) != "durable-unsynced" {
		t.Fatalf("parent a = %q, %v", data, err)
	}
}

// TestCloneSyncedIndependent checks that clone and parent never observe each
// other's subsequent writes, despite the shared (copy-on-write) slices.
func TestCloneSyncedIndependent(t *testing.T) {
	m := NewMem(1)
	if err := WriteFile(m, "a", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	c := m.CloneSynced()

	// Mutate the clone: overwrite, append, sync.
	cf, err := c.OpenRW("a")
	if err != nil {
		t.Fatal(err)
	}
	cf.WriteAt([]byte("XX"), 0)
	cf.Seek(0, io.SeekEnd)
	cf.Write([]byte("tail"))
	if err := cf.Sync(); err != nil {
		t.Fatal(err)
	}
	cf.Close()

	// Mutate the parent too.
	pf, _ := m.OpenRW("a")
	pf.WriteAt([]byte("YY"), 2)
	if err := pf.Sync(); err != nil {
		t.Fatal(err)
	}
	pf.Close()

	got, _ := ReadFile(c, "a")
	if string(got) != "XX23456789tail" {
		t.Errorf("clone a = %q", got)
	}
	got, _ = ReadFile(m, "a")
	if string(got) != "01YY456789" {
		t.Errorf("parent a = %q", got)
	}
}

// TestCloneSyncedOfClone checks clones can be taken from clones.
func TestCloneSyncedOfClone(t *testing.T) {
	m := NewMem(1)
	WriteFile(m, "a", []byte("v1"))
	c1 := m.CloneSynced()
	WriteFile(c1, "a", []byte("v2"))
	c2 := c1.CloneSynced()
	got, _ := ReadFile(c2, "a")
	if string(got) != "v2" {
		t.Errorf("c2 a = %q", got)
	}
	got, _ = ReadFile(m, "a")
	if string(got) != "v1" {
		t.Errorf("parent a = %q", got)
	}
}

// TestFailedSyncDamagesFlushedRegion checks the §2 torn-update model: after
// a failed sync, reads of the region being flushed report errors — both
// live and after a crash — until the region is rewritten. The region is
// the same whether the flush appended or overwrote synced bytes in place,
// and the synced bytes before it stay readable.
func TestFailedSyncDamagesFlushedRegion(t *testing.T) {
	boom := errors.New("power gone")
	for _, synced := range []string{"good-prefix-", "good-prefix-\x00\x00\x00\x00\x00\x00\x00\x00\x00"} {
		m := NewMem(1)
		if err := WriteFile(m, "a", []byte(synced)); err != nil {
			t.Fatal(err)
		}
		f, _ := m.OpenRW("a")
		f.WriteAt([]byte("torn-tail"), 12)
		m.FailSync = func(string) error { return boom }
		if err := f.Sync(); !errors.Is(err, boom) {
			t.Fatalf("%q: sync err = %v", synced, err)
		}
		m.FailSync = nil

		// Live reads of the flushed region fail now.
		if _, err := ReadFile(m, "a"); !errors.Is(err, ErrDamaged) {
			t.Fatalf("%q: read after failed sync = %v, want ErrDamaged", synced, err)
		}

		// The damage survives a crash: the region is durable but
		// unreadable, and what was synced before it is intact.
		c := m.CloneSynced()
		if _, err := ReadFile(c, "a"); !errors.Is(err, ErrDamaged) {
			t.Fatalf("%q: read of crash image = %v, want ErrDamaged", synced, err)
		}
		cf, _ := c.Open("a")
		prefix := make([]byte, 12)
		if _, err := cf.ReadAt(prefix, 0); err != nil || string(prefix) != "good-prefix-" {
			t.Fatalf("%q: synced prefix after the failed sync: %q, %v", synced, prefix, err)
		}

		// A retried, successful sync repairs it (the data was still in
		// memory).
		if err := f.Sync(); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(m, "a")
		if err != nil || string(got) != "good-prefix-torn-tail" {
			t.Fatalf("%q: after repair: %q, %v", synced, got, err)
		}
		f.Close()
	}

	// Overwriting the damaged region also repairs it.
	m2 := NewMem(1)
	WriteFile(m2, "b", []byte("0123"))
	g, _ := m2.OpenRW("b")
	g.WriteAt([]byte("4567"), 4)
	m2.FailSync = func(string) error { return boom }
	g.Sync()
	m2.FailSync = nil
	g.WriteAt([]byte("abcdefgh"), 0)
	if err := g.Sync(); err != nil {
		t.Fatal(err)
	}
	g.Close()
	got, err := ReadFile(m2, "b")
	if err != nil || string(got) != "abcdefgh" {
		t.Fatalf("after overwrite: %q, %v", got, err)
	}
}
