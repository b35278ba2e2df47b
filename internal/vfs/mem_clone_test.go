package vfs

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
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

// TestDamageRanges drives one file's damage through Damage and WriteAt in
// random order against a per-byte reference. After every step the file
// holds the reference's runs as its ranges, ReadAt of every window fails at
// the window's first damaged byte, and a clone keeps the runs below the
// synced length.
func TestDamageRanges(t *testing.T) {
	const size = 120
	m := NewMem(1)
	if err := WriteFile(m, "f", make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	f, err := m.OpenRW("f")
	if err != nil {
		t.Fatal(err)
	}
	ref := map[int64]bool{}
	runs := func(end int64) (out ranges) {
		for i := int64(0); i < end; i++ {
			switch {
			case !ref[i]:
			case len(out) > 0 && out[len(out)-1].to == i:
				out[len(out)-1].to++
			default:
				out = append(out, byteRange{i, i + 1})
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(1))
	for step := 0; step < 400; step++ {
		from, n := rng.Int63n(size), rng.Int63n(24)-4 // sometimes empty
		damage := rng.Intn(2) == 0
		if damage {
			m.Damage("f", from, n) // may run past the end
		} else {
			n = min(n, size-from)
			f.WriteAt(make([]byte, max(n, 0)), from)
		}
		for i := from; i < from+n; i++ {
			ref[i] = damage
		}
		if got, want := m.files["f"].damaged, runs(size+24); !slices.Equal(got, want) {
			t.Fatalf("step %d: ranges %v, want %v", step, got, want)
		}
		for a := int64(0); a < size; a += 5 {
			for b := a; b <= size; b += 7 {
				want := ""
				for i := a; i < b; i++ {
					if ref[i] {
						want = fmt.Sprintf("at offset %d", i)
						break
					}
				}
				_, err := f.ReadAt(make([]byte, b-a), a)
				if want == "" && err != nil || want != "" && (!errors.Is(err, ErrDamaged) || !strings.HasSuffix(err.Error(), want)) {
					t.Fatalf("step %d: ReadAt [%d, %d) = %v, want damage %q", step, a, b, err, want)
				}
			}
		}
		if step%50 == 0 {
			if got, want := m.CloneSynced().files["f"].damaged, runs(size); !slices.Equal(got, want) {
				t.Fatalf("step %d: clone's ranges %v, want %v", step, got, want)
			}
		}
	}
}
