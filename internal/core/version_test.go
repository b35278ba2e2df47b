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

// TestSnapshotStableAcrossPublishes holds 100 snapshots, each of a different
// version, while the writer publishes 100 newer ones and the collector runs:
// the store keeps no superseded version, so only the readers' references
// keep these alive, and every one must keep its Seq and its content.
func TestSnapshotStableAcrossPublishes(t *testing.T) {
	s := openVKV(t)
	defer s.Close()

	const n = 100
	snaps := make([]*Snapshot, n)
	for i := range snaps {
		putN(t, s, 1)
		snap, err := s.SnapshotAt()
		if err != nil {
			t.Fatal(err)
		}
		snaps[i] = snap
	}
	putN(t, s, n)
	runtime.GC()

	for i, snap := range snaps {
		if snap.Seq() != uint64(i+1) {
			t.Fatalf("snapshot %d at seq %d, want %d", i, snap.Seq(), i+1)
		}
		if got := snap.Root().(*vkvRoot).Data["k"]; got != "0" {
			t.Fatalf("snapshot %d shows %q, want %q", i, got, "0")
		}
	}
}

// TestSnapshotsUnderChurn runs readers beside a committing writer whose
// update at seq n writes strconv.Itoa(n): every snapshot must hold exactly
// the value written at its Seq, and no reader may see Seq go backwards.
func TestSnapshotsUnderChurn(t *testing.T) {
	s := openVKV(t)
	defer s.Close()

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint64
			for !stop.Load() {
				snap, err := s.SnapshotAt()
				if err != nil {
					t.Error(err)
					return
				}
				seq := snap.Seq()
				if seq < last {
					t.Errorf("snapshot seq went back from %d to %d", last, seq)
					return
				}
				last = seq
				want := ""
				if seq > 0 {
					want = strconv.FormatUint(seq, 10)
				}
				if got := snap.Root().(*vkvRoot).Data["k"]; got != want {
					t.Errorf("snapshot at seq %d holds %q, want %q", seq, got, want)
					return
				}
				runtime.Gosched()
			}
		}()
	}

	ops := 2000
	if testing.Short() {
		ops = 300
	}
	for i := 1; i <= ops; i++ {
		if err := s.Apply(&putVKV{Key: "k", Value: strconv.Itoa(i)}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
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
	for _, want := range []string{"core_versions_published", "core_enquiries_locked"} {
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
	if snap.Seq() != seq {
		t.Fatalf("recovered snapshot at seq %d, want %d", snap.Seq(), seq)
	}
	if got := snap.Root().(*vkvRoot).Data["k"]; got != "durable" {
		t.Fatalf("recovered snapshot shows %q, want %q", got, "durable")
	}
}
