package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

// The store's three-mode lock (lock.go) against the paper's matrix. The
// lock tests drive a zero Store's locks directly: its lockModes record
// nothing, and the locks need no open store.

// expectBlocked asserts that fn does not complete within a short window,
// and returns a wait for it to complete.
func expectBlocked(t *testing.T, what string, fn func()) (wait func(time.Duration) bool) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
		t.Fatalf("%s did not block", what)
	case <-time.After(20 * time.Millisecond):
	}
	return func(d time.Duration) bool {
		select {
		case <-done:
			return true
		case <-time.After(d):
			return false
		}
	}
}

// expectRuns asserts that fn completes within a second.
func expectRuns(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		fn()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s blocked; the matrix says compatible", what)
	}
}

func TestLockSharedCompatibleWithShared(t *testing.T) {
	var s Store
	s.lockShared()
	expectRuns(t, "second shared", func() { s.lockShared(); s.rw.RUnlock() })
	s.rw.RUnlock()
}

func TestLockSharedCompatibleWithUpdate(t *testing.T) {
	var s Store
	s.lockUpdate()
	expectRuns(t, "shared during update", func() { s.lockShared(); s.rw.RUnlock() })
	s.upd.Unlock()
}

func TestLockUpdateConflictsWithUpdate(t *testing.T) {
	var s Store
	s.lockUpdate()
	wait := expectBlocked(t, "second update", func() { s.lockUpdate(); s.upd.Unlock() })
	s.upd.Unlock()
	if !wait(time.Second) {
		t.Fatal("second update never acquired after release")
	}
}

func TestLockExclusiveConflictsWithShared(t *testing.T) {
	var s Store
	s.lockUpdate()
	s.upgrade()
	wait := expectBlocked(t, "shared during exclusive", func() { s.lockShared(); s.rw.RUnlock() })
	s.release(true)
	if !wait(time.Second) {
		t.Fatal("shared never acquired after exclusive release")
	}
}

func TestLockUpgradeWaitsForReaders(t *testing.T) {
	var s Store
	s.lockShared()
	s.lockUpdate()
	wait := expectBlocked(t, "upgrade with reader present", func() { s.upgrade(); s.release(true) })
	s.rw.RUnlock()
	if !wait(time.Second) {
		t.Fatal("upgrade never completed after readers drained")
	}
}

// TestLockUpgradeBlocksNewReaders: while an upgrade waits, new shared
// requests queue behind it, so a stream of enquiries cannot starve it.
func TestLockUpgradeBlocksNewReaders(t *testing.T) {
	var s Store
	s.lockShared()
	s.lockUpdate()
	upgraded := make(chan struct{})
	go func() {
		s.upgrade()
		close(upgraded)
	}()
	for s.rw.TryRLock() { // until the upgrade is pending
		s.rw.RUnlock()
		runtime.Gosched()
	}

	wait := expectBlocked(t, "new reader while an upgrade is pending", func() { s.lockShared(); s.rw.RUnlock() })
	s.rw.RUnlock() // drain the old reader
	select {
	case <-upgraded:
	case <-time.After(time.Second):
		t.Fatal("upgrade starved")
	}
	s.release(true)
	if !wait(time.Second) {
		t.Fatal("new reader never ran after the exclusive release")
	}
}

// TestLockEnquiriesProceedDuringCommitWindow is the property the matrix
// exists for: while an updater holds only update mode — the paper's disk
// write — enquiries run.
func TestLockEnquiriesProceedDuringCommitWindow(t *testing.T) {
	var s Store
	s.lockUpdate()
	const n = 10
	var ran atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.lockShared()
			ran.Add(1)
			s.rw.RUnlock()
		}()
	}
	wg.Wait()
	if ran.Load() != n {
		t.Fatalf("only %d/%d enquiries ran during the update's disk phase", ran.Load(), n)
	}
	s.upgrade()
	s.release(true)
}

// TestLockStress: concurrent updaters and enquiries through the protocol;
// the counters end exactly right and no enquiry sees a half-applied update.
func TestLockStress(t *testing.T) {
	var s Store
	var value [2]int64 // both halves must always match

	const updaters, updates = 4, 200
	var upd, rd sync.WaitGroup
	for u := 0; u < updaters; u++ {
		upd.Add(1)
		go func() {
			defer upd.Done()
			for i := 0; i < updates; i++ {
				s.lockUpdate()
				// (the log write happens here, readers active)
				s.upgrade()
				value[0]++
				value[1]++
				s.release(true)
			}
		}()
	}
	var stop atomic.Bool
	var torn atomic.Int32
	for r := 0; r < 4; r++ {
		rd.Add(1)
		go func() {
			defer rd.Done()
			for !stop.Load() {
				s.lockShared()
				if value[0] != value[1] {
					torn.Add(1)
				}
				s.rw.RUnlock()
			}
		}()
	}
	upd.Wait()
	stop.Store(true)
	rd.Wait()
	if torn.Load() != 0 {
		t.Fatalf("%d torn reads observed", torn.Load())
	}
	if value[0] != updaters*updates {
		t.Fatalf("final value %d, want %d", value[0], updaters*updates)
	}
}

// TestLockUpdateNotStarvedByTightLoop: an update-mode waiter (a checkpoint)
// gets the lock even against a loop that reacquires update mode the
// instant it releases it.
func TestLockUpdateNotStarvedByTightLoop(t *testing.T) {
	var s Store
	var stop atomic.Bool
	loopDone := make(chan int)
	s.lockUpdate() // the loop starts as the holder, so the waiter truly waits
	go func() {
		n := 0
		for !stop.Load() {
			if n > 0 {
				s.lockUpdate()
			}
			n++
			s.upd.Unlock()
		}
		loopDone <- n
	}()

	acquired := make(chan struct{})
	go func() {
		s.lockUpdate()
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(5 * time.Second):
		t.Fatal("update waiter starved by a reacquiring loop")
	}
	stop.Store(true)
	s.upd.Unlock()
	if n := <-loopDone; n == 0 {
		t.Fatal("loop never ran")
	}
}

// TestCheckpointAndHistoryNotStarved: Checkpoint and History each take
// update mode like any committer, and still return promptly while four
// goroutines commit back to back. History then reads two logs that overlap
// by the updates committed during the checkpoint, and must deliver each
// once.
func TestCheckpointAndHistoryNotStarved(t *testing.T) {
	const bound = 2 * time.Second
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			s := kind.open(t, vfs.NewMem(1))
			defer s.Close()
			var stop atomic.Bool
			var wg sync.WaitGroup
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for !stop.Load() {
						if err := s.Apply(kind.put("k", "v")); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			defer func() { stop.Store(true); wg.Wait() }()
			for s.AppliedSeq() < 100 && !t.Failed() { // until the committers saturate the lock
				runtime.Gosched()
			}

			for _, op := range []struct {
				name string
				run  func() error
			}{
				{"Checkpoint", s.Checkpoint},
				{"History", func() error {
					var prev uint64
					return s.History(true, func(seq uint64, _ Update) error {
						if prev != 0 && seq != prev+1 {
							return fmt.Errorf("sequence %d after %d", seq, prev)
						}
						prev = seq
						return nil
					})
				}},
			} {
				start := time.Now()
				if err := op.run(); err != nil {
					t.Fatalf("%s: %v", op.name, err)
				}
				if d := time.Since(start); d > bound {
					t.Errorf("%s took %v beside tight-loop committers, past %v", op.name, d, bound)
				}
			}
		})
	}
}

// apply is put for a goroutine other than the test's.
func apply(t *testing.T, s *Store, k string) {
	if err := s.Apply(&putKV{Key: k, Value: "v"}); err != nil {
		t.Error(err)
	}
}

// TestLockWaitRecorded: a contended acquisition of update and of upgrade
// mode counts in its core_lock_* series and emits a lock.wait event.
func TestLockWaitRecorded(t *testing.T) {
	reg := obs.NewRegistry()
	var mu sync.Mutex
	waits := map[string]int{}
	tr := obs.FuncTracer(func(e obs.Event) {
		if e.Name == "lock.wait" {
			mu.Lock()
			waits[e.Attrs[0].Value.(string)]++
			mu.Unlock()
		}
	})
	s := openKV(t, vfs.NewMem(1), func(c *Config) { c.Obs = reg; c.Tracer = tr })
	defer s.Close()

	s.lockUpdate() // an updater holds update mode: Apply waits for it
	wait := expectBlocked(t, "Apply beside an update holder", func() { apply(t, s, "a") })
	s.upd.Unlock()
	if !wait(time.Second) {
		t.Fatal("Apply never took update mode")
	}
	s.lockShared() // an enquiry runs: Apply's upgrade waits for it
	wait = expectBlocked(t, "Apply's upgrade beside an enquiry", func() { apply(t, s, "b") })
	s.rw.RUnlock()
	if !wait(time.Second) {
		t.Fatal("Apply never upgraded")
	}

	for _, mode := range []string{"update", "upgrade"} {
		if n := reg.Counter("core_lock_" + mode + "_contended").Value(); n != 1 {
			t.Errorf("core_lock_%s_contended = %d, want 1", mode, n)
		}
		if n := reg.Histogram("core_lock_" + mode + "_wait_ns").Snapshot().Count; n != 1 {
			t.Errorf("core_lock_%s_wait_ns holds %d waits, want 1", mode, n)
		}
		mu.Lock()
		if waits[mode] != 1 {
			t.Errorf("%d lock.wait events for mode %s, want 1", waits[mode], mode)
		}
		mu.Unlock()
	}
}
