package lintest

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

func openTree(t *testing.T, mod ...func(*core.Config)) *core.Store {
	t.Helper()
	cfg := core.Config{FS: vfs.NewMem(1), NewRoot: nameserver.NewRoot, Retain: 1}
	for _, m := range mod {
		m(&cfg)
	}
	st, err := core.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLinearizable exercises the checker at full scale: a 10k-op history
// against 32 concurrent snapshot readers, each read validated against the
// closed-form model and the whole history checked for real-time bounds.
// Run under -race in CI; -short scales the history down.
func TestLinearizable(t *testing.T) {
	cfg := Config{Ops: 10000, Readers: 32}
	if testing.Short() {
		cfg = Config{Ops: 2000, Readers: 8}
	}

	t.Run("default", func(t *testing.T) {
		st := openTree(t)
		defer st.Close()
		stats, err := Run(st, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Ops != uint64(cfg.Ops) {
			t.Fatalf("committed %d ops, want %d", stats.Ops, cfg.Ops)
		}
		if stats.Reads == 0 {
			t.Fatal("no reads validated")
		}
		t.Logf("validated %d snapshot reads against %d ops", stats.Reads, stats.Ops)
	})

	// Group commit on the shipped path: four writers on disjoint key
	// ranges commit concurrently through the default config, overlapping
	// in the pipeline and sharing epoch barriers; every snapshot must
	// still hold a sequence-ordered prefix.
	t.Run("group-commit", func(t *testing.T) {
		st := openTree(t)
		defer st.Close()
		mw := cfg
		mw.Writers = 4
		stats, err := Run(st, mw)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Ops != uint64(cfg.Ops) {
			t.Fatalf("committed %d ops, want %d", stats.Ops, cfg.Ops)
		}
	})
}

// lockedRoot holds a nameserver tree but offers the store no versions (it
// has no SnapshotView): the store's observed, unconfigured fallback.
type lockedRoot struct{ T *nameserver.Tree }

func (r *lockedRoot) NameTree() *nameserver.Tree { return r.T }

func init() { pickle.Register(&lockedRoot{}) }

// TestUnversionedRootLocksEnquiries confirms a root without versions really
// gets the paper's protocol: SnapshotAt and the checker refuse, and
// enquiries take the shared lock.
func TestUnversionedRootLocksEnquiries(t *testing.T) {
	reg := obs.NewRegistry()
	st := openTree(t, func(c *core.Config) {
		c.Obs = reg
		c.NewRoot = func() any { return &lockedRoot{T: nameserver.NewTree()} }
	})
	defer st.Close()
	if _, err := st.SnapshotAt(); !errors.Is(err, ErrNotVersioned) {
		t.Fatalf("SnapshotAt = %v, want ErrNotVersioned", err)
	}
	if _, err := Run(st, Config{Ops: 10, Readers: 1}); !errors.Is(err, ErrNotVersioned) {
		t.Fatalf("Run = %v, want ErrNotVersioned", err)
	}
	if err := st.View(func(root any) error { treeFromRoot(root); return nil }); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("core_enquiries_locked").Value(); got == 0 {
		t.Fatal("enquiry on an unversioned root did not count as locked")
	}
}

// TestStressNoBlockedReads is the read-availability stress test: 32
// readers, one writer, and one checkpointer run concurrently while a
// monitor polls the lock; no enquiry may ever hold (or wait on) the
// shared lock, and the store must publish and reclaim versions the whole
// time. Under -race this also hammers the publication and reclamation
// memory ordering.
func TestStressNoBlockedReads(t *testing.T) {
	reg := obs.NewRegistry()
	st := openTree(t, func(c *core.Config) { c.Obs = reg })
	defer st.Close()

	dur := 2 * time.Second
	if testing.Short() {
		dur = 250 * time.Millisecond
	}

	const readers = 32
	var stop atomic.Bool
	var reads, writes, checkpoints atomic.Uint64
	var sharedSeen atomic.Int64
	errs := make(chan error, readers+3)
	var wg sync.WaitGroup

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			key := []string{"stress", "k" + strconv.Itoa(r%8)}
			for !stop.Load() {
				err := st.View(func(root any) error {
					root.(*nameserver.Tree).FindNode(key)
					return nil
				})
				if err != nil {
					errs <- err
					return
				}
				reads.Add(1)
				// Lock-free reads never block, so on a small GOMAXPROCS
				// spinning readers would keep the writer and checkpointer
				// runnable-but-unscheduled forever; yield between reads.
				runtime.Gosched()
			}
		}(r)
	}

	wg.Add(1)
	go func() { // writer
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			u := &nameserver.SetValue{
				Path:  []string{"stress", "k" + strconv.Itoa(i%8)},
				Value: strconv.Itoa(i),
			}
			if err := st.Apply(u); err != nil {
				errs <- err
				return
			}
			writes.Add(1)
			runtime.Gosched()
		}
	}()

	wg.Add(1)
	go func() { // checkpointer
		defer wg.Done()
		for !stop.Load() {
			if err := st.Checkpoint(); err != nil {
				errs <- err
				return
			}
			checkpoints.Add(1)
			time.Sleep(10 * time.Millisecond)
		}
	}()

	wg.Add(1)
	go func() { // monitor: the shared lock must stay untouched throughout
		defer wg.Done()
		for !stop.Load() {
			if shared, _, _ := st.LockHolders(); shared > 0 {
				sharedSeen.Add(int64(shared))
			}
			time.Sleep(100 * time.Microsecond)
		}
	}()

	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if reads.Load() == 0 || writes.Load() == 0 || checkpoints.Load() == 0 {
		t.Fatalf("idle stress: reads=%d writes=%d checkpoints=%d",
			reads.Load(), writes.Load(), checkpoints.Load())
	}
	if n := sharedSeen.Load(); n != 0 {
		t.Fatalf("shared lock held %d times during lock-free reads", n)
	}
	if n := reg.Counter("core_enquiries_locked").Value(); n != 0 {
		t.Fatalf("%d enquiries fell back to the shared lock", n)
	}
	if n := reg.Counter("core_versions_published").Value(); n == 0 {
		t.Fatal("no versions published during stress")
	}
	if n := reg.Counter("core_versions_reclaimed").Value(); n == 0 {
		t.Fatal("no versions reclaimed during stress")
	}
	t.Logf("reads=%d writes=%d checkpoints=%d published=%d reclaimed=%d",
		reads.Load(), writes.Load(), checkpoints.Load(),
		reg.Counter("core_versions_published").Value(),
		reg.Counter("core_versions_reclaimed").Value())
}

// TestModelClosedForm pins the analytic model itself: lastWrite must name
// the greatest i ≤ j with i ≡ c (mod keys), or 0 when no such op ≥ 1
// exists.
func TestModelClosedForm(t *testing.T) {
	const keys = 4
	for j := uint64(0); j <= 20; j++ {
		for c := 0; c < keys; c++ {
			// Reference: brute force over the history.
			want := uint64(0)
			for i := uint64(1); i <= j; i++ {
				if i%uint64(keys) == uint64(c) {
					want = i
				}
			}
			if got := lastWrite(j, c, keys); got != want {
				t.Fatalf("lastWrite(%d,%d,%d) = %d, want %d", j, c, keys, got, want)
			}
		}
	}
}
