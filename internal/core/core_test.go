package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"smalldb/internal/checkpoint"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// A minimal database for testing: a string→string table.
type kvRoot struct {
	Data map[string]string
}

func newKV() any { return &kvRoot{Data: make(map[string]string)} }

type putKV struct {
	Key, Value string
}

func (u *putKV) Verify(root any) error {
	if u.Key == "" {
		return errors.New("empty key")
	}
	return nil
}

func (u *putKV) Apply(root any) error {
	root.(*kvRoot).Data[u.Key] = u.Value
	return nil
}

type delKV struct {
	Key string
}

func (u *delKV) Verify(root any) error {
	if _, ok := root.(*kvRoot).Data[u.Key]; !ok {
		return fmt.Errorf("no such key %q", u.Key)
	}
	return nil
}

func (u *delKV) Apply(root any) error {
	delete(root.(*kvRoot).Data, u.Key)
	return nil
}

// brokenApply violates the Verify/Apply contract.
type brokenApply struct{ X int }

func (u *brokenApply) Verify(root any) error { return nil }
func (u *brokenApply) Apply(root any) error  { return errors.New("apply bug") }

func init() {
	pickle.Register(&kvRoot{})
	RegisterUpdate(&putKV{})
	RegisterUpdate(&delKV{})
	RegisterUpdate(&brokenApply{})
}

func openKV(t *testing.T, fs vfs.FS, mod ...func(*Config)) *Store {
	t.Helper()
	cfg := Config{FS: fs, NewRoot: newKV, Retain: 1}
	for _, m := range mod {
		m(&cfg)
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func get(t *testing.T, s *Store, key string) (string, bool) {
	t.Helper()
	var v string
	var ok bool
	if err := s.View(func(root any) error {
		v, ok = root.(*kvRoot).Data[key]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return v, ok
}

func put(t *testing.T, s *Store, k, v string) {
	t.Helper()
	if err := s.Apply(&putKV{Key: k, Value: v}); err != nil {
		t.Fatalf("put %s: %v", k, err)
	}
}

func TestFreshOpenAndBasicOps(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()

	if _, ok := get(t, s, "a"); ok {
		t.Fatal("fresh store not empty")
	}
	put(t, s, "a", "1")
	put(t, s, "b", "2")
	if v, ok := get(t, s, "a"); !ok || v != "1" {
		t.Errorf("a = %q, %v", v, ok)
	}
	if err := s.Apply(&delKV{Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, ok := get(t, s, "a"); ok {
		t.Error("a survived delete")
	}
}

func TestDurabilityAcrossRestart(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	for i := 0; i < 50; i++ {
		put(t, s, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	s.Close()

	s2 := openKV(t, fs)
	defer s2.Close()
	for i := 0; i < 50; i++ {
		if v, ok := get(t, s2, fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q, %v", i, v, ok)
		}
	}
	st := s2.Stats()
	if st.RestartEntries != 50 {
		t.Errorf("RestartEntries = %d", st.RestartEntries)
	}
}

func TestDurabilityAcrossCrash(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	put(t, s, "committed", "yes")
	// Crash without Close: unsynced buffers vanish; the committed
	// update's log entry was synced by Append.
	fs.Crash()

	s2 := openKV(t, fs)
	defer s2.Close()
	if v, ok := get(t, s2, "committed"); !ok || v != "yes" {
		t.Fatalf("committed update lost: %q %v", v, ok)
	}
}

func TestFailedCommitNotVisibleAfterRestart(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	put(t, s, "before", "x")

	boom := errors.New("disk died")
	fs.FailSync = func(string) error { return boom }
	if err := s.Apply(&putKV{Key: "lost", Value: "y"}); !errors.Is(err, boom) {
		t.Fatalf("expected commit failure, got %v", err)
	}
	fs.FailSync = nil
	fs.Crash()

	s2 := openKV(t, fs)
	defer s2.Close()
	if _, ok := get(t, s2, "lost"); ok {
		t.Error("uncommitted update visible after restart")
	}
	if v, _ := get(t, s2, "before"); v != "x" {
		t.Error("committed update lost")
	}
}

func TestPreconditionFailure(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	pre := s.Stats()
	if err := s.Apply(&delKV{Key: "ghost"}); err == nil || !strings.Contains(err.Error(), "no such key") {
		t.Fatalf("got %v", err)
	}
	post := s.Stats()
	if post.LogBytes != pre.LogBytes {
		t.Error("failed precondition grew the log")
	}
	if post.Updates != pre.Updates {
		t.Error("failed precondition counted as update")
	}
}

func TestCheckpointAndFastRestart(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	for i := 0; i < 30; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if s.Version() != 2 {
		t.Errorf("version %d", s.Version())
	}
	// Post-checkpoint updates land in the new log.
	put(t, s, "after", "cp")
	s.Close()

	s2 := openKV(t, fs)
	defer s2.Close()
	st := s2.Stats()
	if st.RestartEntries != 1 {
		t.Errorf("RestartEntries = %d, want 1 (only post-checkpoint update)", st.RestartEntries)
	}
	if v, _ := get(t, s2, "k7"); v != "v" {
		t.Error("pre-checkpoint data lost")
	}
	if v, _ := get(t, s2, "after"); v != "cp" {
		t.Error("post-checkpoint update lost")
	}
}

func TestUpdatesAfterCheckpointContinueSequence(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	put(t, s, "a", "1")
	seqBefore := s.AppliedSeq()
	s.Checkpoint()
	put(t, s, "b", "2")
	if got := s.AppliedSeq(); got != seqBefore+1 {
		t.Errorf("sequence reset across checkpoint: %d -> %d", seqBefore, got)
	}
	s.Close()
	s2 := openKV(t, fs)
	defer s2.Close()
	if v, _ := get(t, s2, "b"); v != "2" {
		t.Error("post-checkpoint update lost")
	}
}

func TestCrashDuringCheckpoint(t *testing.T) {
	// Fail the checkpoint switch at each sync point; the store must
	// keep working against the old version, and a restart must see all
	// committed updates.
	for failAt := 1; failAt <= 4; failAt++ {
		fs := vfs.NewMem(int64(failAt))
		s := openKV(t, fs)
		for i := 0; i < 10; i++ {
			put(t, s, fmt.Sprintf("k%d", i), "v")
		}
		count := 0
		boom := errors.New("injected")
		fs.FailSync = func(name string) error {
			count++
			if count >= failAt {
				return boom
			}
			return nil
		}
		cperr := s.Checkpoint()
		fs.FailSync = nil
		if cperr == nil {
			// Sync points beyond the protocol's; checkpoint done.
			s.Close()
		} else {
			// Old version still current; more updates must work.
			if err := s.Apply(&putKV{Key: "post-fail", Value: "v"}); err != nil {
				t.Fatalf("failAt %d: store unusable after failed checkpoint: %v", failAt, err)
			}
			s.Close()
		}
		fs.Crash()
		s2 := openKV(t, fs)
		for i := 0; i < 10; i++ {
			if _, ok := get(t, s2, fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("failAt %d: k%d lost", failAt, i)
			}
		}
		if cperr != nil {
			if v, _ := get(t, s2, "post-fail"); v != "v" {
				t.Fatalf("failAt %d: post-failure update lost", failAt)
			}
		}
		s2.Close()
	}
}

// waitCheckpoints waits for the background auto-checkpoint goroutine to
// record at least n checkpoints (auto-checkpoints run off the update path).
func waitCheckpoints(t *testing.T, s *Store, n uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Checkpoints < n {
		if time.Now().After(deadline) {
			t.Fatalf("auto checkpoint never fired (have %d, want %d; last err %v)",
				s.Stats().Checkpoints, n, s.LastCheckpointErr())
		}
		time.Sleep(time.Millisecond)
	}
}

func TestAutoCheckpointByEntries(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.MaxLogEntries = 10 })
	defer s.Close()
	for i := 0; i < 25; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	waitCheckpoints(t, s, 1)
}

func TestAutoCheckpointByBytes(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.MaxLogBytes = 200 })
	defer s.Close()
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("key-%d", i), strings.Repeat("v", 50))
	}
	waitCheckpoints(t, s, 1)
}

func TestCheckpointEvery(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	s.CheckpointEvery(10 * time.Millisecond)
	put(t, s, "a", "1")
	deadline := time.Now().Add(2 * time.Second)
	for s.Stats().Checkpoints == 0 {
		if time.Now().After(deadline) {
			t.Fatal("timer checkpoint never fired")
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.Close()
}

func TestApplyContractViolationPoisons(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	if err := s.Apply(&brokenApply{}); err == nil {
		t.Fatal("broken Apply succeeded")
	}
	if s.Err() == nil {
		t.Fatal("store not poisoned")
	}
	if err := s.Apply(&putKV{Key: "k", Value: "v"}); err == nil {
		t.Error("poisoned store accepted an update")
	}
	// Enquiries still work on the (possibly stale) memory image.
	if err := s.View(func(any) error { return nil }); err != nil {
		t.Errorf("View on poisoned store: %v", err)
	}
}

// kvKind lets one test body run over both branches of the commit pipeline:
// the unversioned kv root (each entry durable before its apply, one
// committer at a time) and the versioned one (apply, release the lock, then
// share the epoch barrier with every concurrent committer).
type kvKind struct {
	name    string
	newRoot func() any
	put     func(k, v string) Update
	data    func(root any) map[string]string
}

var kvKinds = []kvKind{
	{"unversioned", newKV,
		func(k, v string) Update { return &putKV{Key: k, Value: v} },
		func(root any) map[string]string { return root.(*kvRoot).Data }},
	{"versioned", newVKV,
		func(k, v string) Update { return &putVKV{Key: k, Value: v} },
		func(root any) map[string]string { return root.(*vkvRoot).Data }},
}

func (k kvKind) open(t *testing.T, fs vfs.FS, mod ...func(*Config)) *Store {
	t.Helper()
	return openKV(t, fs, append([]func(*Config){func(c *Config) { c.NewRoot = k.newRoot }}, mod...)...)
}

// snapshot copies the table an enquiry sees.
func (k kvKind) snapshot(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := map[string]string{}
	if err := s.View(func(root any) error {
		for key, v := range k.data(root) {
			out[key] = v
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGroupCommitMode: concurrent committers through the default pipeline
// — sharing epoch barriers when the root is versioned — all survive a
// restart.
func TestGroupCommitMode(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			fs := vfs.NewMem(1)
			s := kind.open(t, fs)
			var wg sync.WaitGroup
			const writers, each = 8, 20
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < each; i++ {
						if err := s.Apply(kind.put(fmt.Sprintf("w%d-%d", w, i), "v")); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			s.Close()

			s2 := kind.open(t, fs)
			defer s2.Close()
			if n := len(kind.snapshot(t, s2)); n != writers*each {
				t.Errorf("recovered %d keys, want %d", n, writers*each)
			}
		})
	}
}

func TestGroupCommitCheckpointInterleaving(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			fs := vfs.NewMem(1)
			s := kind.open(t, fs)
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for w := 0; w < 4; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					i := 0
					for {
						select {
						case <-stop:
							return
						default:
						}
						s.Apply(kind.put(fmt.Sprintf("w%d-%d", w, i), "v"))
						i++
					}
				}(w)
			}
			for i := 0; i < 5; i++ {
				if err := s.Checkpoint(); err != nil {
					t.Errorf("checkpoint %d: %v", i, err)
				}
				time.Sleep(5 * time.Millisecond)
			}
			close(stop)
			wg.Wait()
			s.Close()
			s2 := kind.open(t, fs)
			s2.Close()
		})
	}
}

func TestHardErrorFallbackToPreviousCheckpoint(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs) // Retain: 1
	put(t, s, "era1", "x")
	if err := s.Checkpoint(); err != nil { // version 2; version 1 retained
		t.Fatal(err)
	}
	put(t, s, "era2", "y")
	s.Close()

	// Hard failure: the current checkpoint (checkpoint2) is unreadable.
	if err := fs.Damage(checkpoint.CheckpointName(2), 0, 10); err != nil {
		t.Fatal(err)
	}

	s2 := openKV(t, fs)
	defer s2.Close()
	st := s2.Stats()
	if !st.RestartUsedFallback {
		t.Error("fallback not used")
	}
	if v, _ := get(t, s2, "era1"); v != "x" {
		t.Error("era1 lost")
	}
	if v, _ := get(t, s2, "era2"); v != "y" {
		t.Error("era2 (current log) lost")
	}
}

func TestHardErrorNoFallbackWithoutRetention(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.Retain = 0 })
	put(t, s, "a", "1")
	s.Checkpoint()
	s.Close()
	fs.Damage(checkpoint.CheckpointName(2), 0, 10)
	if _, err := Open(Config{FS: fs, NewRoot: newKV}); err == nil {
		t.Error("open succeeded with damaged checkpoint and no retention")
	}
}

func TestSkipDamagedLogEntries(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	put(t, s, "a", "1")
	sizeBefore, _ := fs.Stat(checkpoint.LogName(1)) // the head frame and entry 1
	put(t, s, "b", "2")
	put(t, s, "c", "3")
	s.Close()

	// Damage the second entry's payload.
	fs.Damage(checkpoint.LogName(1), sizeBefore+8, 4)

	if _, err := Open(Config{FS: fs, NewRoot: newKV}); err == nil {
		t.Fatal("open succeeded over damaged log without SkipDamagedLogEntries")
	}
	s2 := openKV(t, fs, func(c *Config) { c.SkipDamagedLogEntries = true })
	defer s2.Close()
	if st := s2.Stats(); st.RestartSkippedDamaged != 1 {
		t.Errorf("RestartSkippedDamaged = %d", st.RestartSkippedDamaged)
	}
	if _, ok := get(t, s2, "b"); ok {
		t.Error("damaged update resurrected")
	}
	if v, _ := get(t, s2, "c"); v != "3" {
		t.Error("update after the damaged one lost")
	}
}

func TestConcurrentViewsAndUpdates(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.View(func(root any) error {
					_ = len(root.(*kvRoot).Data)
					return nil
				})
			}
		}()
	}
	for i := 0; i < 100; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	close(stop)
	wg.Wait()
	if n := len(mustRoot(t, s).Data); n != 100 {
		t.Errorf("final size %d", n)
	}
}

func mustRoot(t *testing.T, s *Store) *kvRoot {
	t.Helper()
	var r *kvRoot
	s.View(func(root any) error { r = root.(*kvRoot); return nil })
	return r
}

func TestStatsBreakdown(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	st := s.Stats()
	if st.Updates != 10 {
		t.Errorf("Updates = %d", st.Updates)
	}
	if st.PickleTime <= 0 || st.CommitTime <= 0 {
		t.Errorf("phase timers not recorded: %+v", st)
	}
	if st.LogEntries != 10 {
		t.Errorf("LogEntries = %d", st.LogEntries)
	}
}

func TestClosedStore(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	s.Close()
	if err := s.Apply(&putKV{Key: "k", Value: "v"}); !errors.Is(err, ErrClosed) {
		t.Errorf("Apply: %v", err)
	}
	if err := s.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Errorf("Checkpoint: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Errorf("double Close: %v", err)
	}
}

func TestAuditTrailHistory(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.ArchiveLogs = true; c.Retain = 0 })
	// Three eras of updates separated by checkpoints.
	put(t, s, "era1-a", "1")
	put(t, s, "era1-b", "2")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(t, s, "era2-a", "3")
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	put(t, s, "era3-a", "4")

	var seqs []uint64
	var keys []string
	err := s.History(func(seq uint64, u Update) error {
		seqs = append(seqs, seq)
		keys = append(keys, u.(*putKV).Key)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 4 {
		t.Fatalf("history has %d entries: %v", len(seqs), keys)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Errorf("seq[%d] = %d", i, seq)
		}
	}
	want := []string{"era1-a", "era1-b", "era2-a", "era3-a"}
	for i, k := range keys {
		if k != want[i] {
			t.Errorf("keys = %v", keys)
			break
		}
	}

	// The archives survive a restart and History still works.
	s.Close()
	s2 := openKV(t, fs, func(c *Config) { c.ArchiveLogs = true; c.Retain = 0 })
	defer s2.Close()
	n := 0
	if err := s2.History(func(uint64, Update) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Errorf("history after restart: %d entries", n)
	}
}

func TestHistoryWithoutArchiveCoversCurrentLog(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.Retain = 0 })
	put(t, s, "a", "1")
	s.Checkpoint() // era-1 log deleted (no archive)
	put(t, s, "b", "2")
	var keys []string
	if err := s.History(func(_ uint64, u Update) error {
		keys = append(keys, u.(*putKV).Key)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "b" {
		t.Errorf("history = %v (only the current era is on disk)", keys)
	}
	s.Close()
}

func TestHistoryConcurrentWithEnquiries(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			get(t, s, "k3")
		}
	}()
	n := 0
	if err := s.History(func(uint64, Update) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	<-done
	if n != 20 {
		t.Errorf("history entries: %d", n)
	}
}

// The E9 property, in miniature: run updates with a crash injected at a
// random sync, recover, and check that the surviving set is exactly a
// prefix of the acknowledged updates.
func TestCrashAnywherePrefixProperty(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		fs := vfs.NewMem(seed)
		s := openKV(t, fs)

		crashAfter := int(seed % 17)
		count := 0
		boom := errors.New("crash")
		fs.FailSync = func(string) error {
			count++
			if count > crashAfter {
				return boom
			}
			return nil
		}
		acked := 0
		for i := 0; i < 20; i++ {
			if err := s.Apply(&putKV{Key: fmt.Sprintf("k%d", i), Value: "v"}); err != nil {
				break
			}
			acked++
		}
		fs.FailSync = nil
		fs.Crash()

		s2, err := Open(Config{FS: fs, NewRoot: newKV})
		if err != nil {
			t.Fatalf("seed %d: recover: %v", seed, err)
		}
		for i := 0; i < acked; i++ {
			if _, ok := get(t, s2, fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("seed %d: acknowledged update k%d lost", seed, i)
			}
		}
		// Anything beyond acked+1 must be absent (at most the one
		// in-flight update may have committed without an ack).
		for i := acked + 1; i < 20; i++ {
			if _, ok := get(t, s2, fmt.Sprintf("k%d", i)); ok {
				t.Fatalf("seed %d: unacknowledged update k%d visible", seed, i)
			}
		}
		s2.Close()
	}
}
