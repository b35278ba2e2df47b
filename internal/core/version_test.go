package core

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// A versioned variant of the kv test root: SnapshotView copies the table,
// opting the store into lock-free snapshot enquiries.
type vkvRoot struct {
	Data map[string]string
}

func newVKV() any { return &vkvRoot{Data: make(map[string]string)} }

func (r *vkvRoot) SnapshotView() any {
	c := make(map[string]string, len(r.Data))
	for k, v := range r.Data {
		c[k] = v
	}
	return &vkvRoot{Data: c}
}

type putVKV struct {
	Key, Value string
}

func (u *putVKV) Verify(root any) error { return nil }
func (u *putVKV) Apply(root any) error {
	root.(*vkvRoot).Data[u.Key] = u.Value
	return nil
}

func init() {
	pickle.Register(&vkvRoot{})
	RegisterUpdate(&putVKV{})
}

func openVKV(t *testing.T, mod ...func(*Config)) *Store {
	t.Helper()
	cfg := Config{FS: vfs.NewMem(1), NewRoot: newVKV, Retain: 1}
	for _, m := range mod {
		m(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func putN(t *testing.T, s *Store, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := s.Apply(&putVKV{Key: "k", Value: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotPinnedAcrossPublishes pins one snapshot while the writer
// publishes many newer versions: the snapshot's content must never move,
// superseded versions must accumulate (reclamation is blocked by the
// pin), and a single Release must let the next publish reclaim them all.
func TestSnapshotPinnedAcrossPublishes(t *testing.T) {
	s := openVKV(t)
	defer s.Close()

	if err := s.Apply(&putVKV{Key: "k", Value: "pinned"}); err != nil {
		t.Fatal(err)
	}
	snap, err := s.SnapshotAt()
	if err != nil {
		t.Fatal(err)
	}
	seq := snap.Seq()

	putN(t, s, 10)
	if got := s.RetainedVersions(); got == 0 {
		t.Fatal("no superseded versions retained while a reader holds a pin")
	}
	if snap.Seq() != seq {
		t.Fatalf("snapshot seq moved: %d → %d", seq, snap.Seq())
	}
	if got := snap.Root().(*vkvRoot).Data["k"]; got != "pinned" {
		t.Fatalf("pinned snapshot shows %q, want %q", got, "pinned")
	}

	snap.Release()
	putN(t, s, 1) // the next publish runs reclamation
	if got := s.RetainedVersions(); got != 0 {
		t.Fatalf("%d versions still retained after the only pin was released", got)
	}
}

// TestReclamationUnderChurn runs pin/unpin churn against a committing
// writer: retained versions must not grow without bound, and once the
// readers stop, one more publish must drain the retired list completely.
func TestReclamationUnderChurn(t *testing.T) {
	s := openVKV(t)
	defer s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				snap, err := s.SnapshotAt()
				if err != nil {
					t.Error(err)
					return
				}
				_ = snap.Root().(*vkvRoot).Data["k"]
				snap.Release()
				runtime.Gosched()
			}
		}()
	}

	ops := 2000
	if testing.Short() {
		ops = 300
	}
	maxRetained := 0
	for i := 0; i < ops; i++ {
		if err := s.Apply(&putVKV{Key: "k", Value: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
		if n := s.RetainedVersions(); n > maxRetained {
			maxRetained = n
		}
	}
	stop.Store(true)
	wg.Wait()

	// The retained count is bounded by the versions published since the
	// oldest outstanding pin — not by the reader count, since a descheduled
	// reader can hold one pin across many publishes. The hard invariant is
	// that churn never wedges reclamation: once the readers stop, a single
	// publish must drain the retired list completely.
	t.Logf("retained versions peaked at %d across %d publishes", maxRetained, ops)
	putN(t, s, 1)
	if got := s.RetainedVersions(); got != 0 {
		t.Fatalf("%d versions retained after all readers stopped", got)
	}
}

// TestPinTableOverflow exhausts the pin table: snapshot number pinSlots+N
// must still succeed (degrading to an unpinned read the garbage collector
// keeps safe) and count the overflow, and every overflowed snapshot must
// keep reading its version's content even after the store has reclaimed
// it.
func TestPinTableOverflow(t *testing.T) {
	reg := obs.NewRegistry()
	s := openVKV(t, func(c *Config) { c.Obs = reg })
	defer s.Close()

	if err := s.Apply(&putVKV{Key: "k", Value: "old"}); err != nil {
		t.Fatal(err)
	}
	const extra = 6
	snaps := make([]*Snapshot, 0, pinSlots+extra)
	for i := 0; i < pinSlots+extra; i++ {
		snap, err := s.SnapshotAt()
		if err != nil {
			t.Fatalf("snapshot %d: %v", i, err)
		}
		snaps = append(snaps, snap)
	}
	if got := reg.Counter("core_enquiry_pin_overflow").Value(); got != extra {
		t.Fatalf("pin overflow counter = %d, want %d", got, extra)
	}

	// Supersede and reclaim; unpinned snapshots must still read "old".
	putN(t, s, pinSlots)
	for i, snap := range snaps {
		if got := snap.Root().(*vkvRoot).Data["k"]; got != "old" {
			t.Fatalf("snapshot %d shows %q after reclamation, want %q", i, got, "old")
		}
		snap.Release()
	}
	putN(t, s, 1)
	if got := s.RetainedVersions(); got != 0 {
		t.Fatalf("%d versions retained after releasing every snapshot", got)
	}
}

// TestVersionedLockSeries checks the /stats surface (the satellite fix for
// dead series): a versioned store must not export the never-acquired
// shared-lock metrics, while an unversioned one — whose reads really do
// take the shared lock — must.
func TestVersionedLockSeries(t *testing.T) {
	hasShared := func(reg *obs.Registry) bool {
		for _, n := range reg.Names() {
			if strings.Contains(n, "lock_shared") {
				return true
			}
		}
		return false
	}

	reg := obs.NewRegistry()
	s := openVKV(t, func(c *Config) { c.Obs = reg })
	if hasShared(reg) {
		t.Error("versioned store exports dead core_lock_shared_* series")
	}
	for _, want := range []string{
		"core_versions_published", "core_versions_retained",
		"core_version_epoch", "core_reader_pins",
	} {
		found := false
		for _, n := range reg.Names() {
			if n == want {
				found = true
			}
		}
		if !found {
			t.Errorf("versioned store missing %s", want)
		}
	}
	s.Close()

	lreg := obs.NewRegistry()
	ls := openKV(t, vfs.NewMem(1), func(c *Config) { c.Obs = lreg })
	defer ls.Close()
	if !hasShared(lreg) {
		t.Error("unversioned store should export the shared-lock series it uses")
	}
	get(t, ls, "k")
	if lreg.Counter("core_enquiries_locked").Value() == 0 {
		t.Error("enquiry on an unversioned root did not count as locked")
	}
}

// TestUnversionedRootFallsBack pins the opt-in contract: a root without
// SnapshotView keeps the pre-versioning behaviour — View under the shared
// lock, SnapshotAt refused.
func TestUnversionedRootFallsBack(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	if _, err := s.SnapshotAt(); err != ErrNotVersioned {
		t.Fatalf("SnapshotAt on unversioned root = %v, want ErrNotVersioned", err)
	}
	if err := s.Apply(&putKV{Key: "a", Value: "1"}); err != nil {
		t.Fatal(err)
	}
	var got string
	if err := s.View(func(root any) error {
		got = root.(*kvRoot).Data["a"]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got != "1" {
		t.Fatalf("View read %q, want %q", got, "1")
	}
}

// TestVersionsSurviveRestart checks that recovery republishes: a reopened
// versioned store serves snapshots of the recovered state immediately.
func TestVersionsSurviveRestart(t *testing.T) {
	fs := vfs.NewMem(1)
	cfg := Config{FS: fs, NewRoot: newVKV, Retain: 1}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(&putVKV{Key: "k", Value: "durable"}); err != nil {
		t.Fatal(err)
	}
	seq := s.AppliedSeq()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap, err := s2.SnapshotAt()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if snap.Seq() != seq {
		t.Fatalf("recovered snapshot at seq %d, want %d", snap.Seq(), seq)
	}
	if got := snap.Root().(*vkvRoot).Data["k"]; got != "durable" {
		t.Fatalf("recovered snapshot shows %q, want %q", got, "durable")
	}
}
