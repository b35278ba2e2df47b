package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"smalldb/internal/checkpoint"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
	"smalldb/internal/wal"
)

// TestBatchSyncFailureNotVisible: when the sync covering a batch fails, the
// call reports the error and no enquiry ever sees any of the batch — on the
// default config, for both branches of the pipeline.
func TestBatchSyncFailureNotVisible(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never})
			s := kind.open(t, ffs)
			defer s.Close()
			if err := s.Apply(kind.put("before", "1")); err != nil {
				t.Fatal(err)
			}

			boom := errors.New("injected sync failure")
			ffs.FailSyncAt(1, boom)
			err := s.ApplyBatch([]Update{kind.put("b0", "1"), kind.put("b1", "1"), kind.put("b2", "1")})
			if !errors.Is(err, boom) {
				t.Fatalf("ApplyBatch over a failed sync = %v, want the sync error", err)
			}
			got := kind.snapshot(t, s)
			if _, ok := got["before"]; !ok {
				t.Error("the update committed before the batch is gone")
			}
			for k := range got {
				if strings.HasPrefix(k, "b") && k != "before" {
					t.Errorf("enquiry observes %s from a batch whose sync failed", k)
				}
			}
			if s.Err() == nil {
				t.Error("store not poisoned after a failed commit")
			}
		})
	}
}

// TestUpdateInvisibleUntilDurable holds a log sync open and looks: no
// enquiry may observe the update until Apply has returned, whichever branch
// the root selects.
func TestUpdateInvisibleUntilDurable(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			mem := vfs.NewMem(1)
			s := kind.open(t, mem)
			defer s.Close()

			entered, release := make(chan struct{}), make(chan struct{})
			var once, releaseOnce sync.Once
			letGo := func() { releaseOnce.Do(func() { close(release) }) }
			defer letGo() // before Close, which waits for the held sync
			mem.FailSync = func(string) error {
				once.Do(func() {
					close(entered)
					<-release
				})
				return nil
			}
			done := make(chan error, 1)
			go func() { done <- s.Apply(kind.put("k", "v")) }()
			<-entered
			if _, ok := kind.snapshot(t, s)["k"]; ok {
				t.Error("update visible to an enquiry while its sync is still in flight")
			}
			select {
			case err := <-done:
				t.Fatalf("Apply returned (%v) before its sync completed", err)
			default:
			}
			letGo()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if v := kind.snapshot(t, s)["k"]; v != "v" {
				t.Errorf("update not visible after Apply returned: k = %q", v)
			}
		})
	}
}

// createVKV binds a key only if it is unbound: an update whose Verify can
// refuse because of what an earlier, still-unacknowledged update applied.
type createVKV struct{ Key string }

var errExists = errors.New("key exists")

func (u *createVKV) Verify(root any) error {
	if _, ok := root.(*vkvRoot).Data[u.Key]; ok {
		return errExists
	}
	return nil
}
func (u *createVKV) Apply(root any) error {
	root.(*vkvRoot).Data[u.Key] = "created"
	return nil
}

func init() { RegisterUpdate(&createVKV{}) }

// TestRefusalWaitsForWhatItSaw: Verify judges the working root, which on a
// versioned store runs ahead of the durable frontier while a committer
// waits out its epoch. A refusal decided against such state ("already
// there") must not reach the caller before an enquiry could see the state:
// replicas act on exactly that answer.
func TestRefusalWaitsForWhatItSaw(t *testing.T) {
	mem := vfs.NewMem(1)
	s := kvKinds[1].open(t, mem)
	defer s.Close()

	entered, release := make(chan struct{}), make(chan struct{})
	var once, releaseOnce sync.Once
	letGo := func() { releaseOnce.Do(func() { close(release) }) }
	defer letGo() // before Close, which waits for the held sync
	mem.FailSync = func(string) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	first := make(chan error, 1)
	go func() { first <- s.Apply(&putVKV{Key: "k", Value: "v"}) }()
	<-entered

	refused := make(chan error, 1)
	go func() { refused <- s.Apply(&createVKV{Key: "k"}) }()
	visible := func() bool { _, ok := kvKinds[1].snapshot(t, s)["k"]; return ok }
	select {
	case err := <-refused:
		// Returned while the first update's sync is still held open.
		if !visible() {
			t.Fatalf("refusal (%v) reported before the update it was decided against is visible", err)
		}
		refused <- err
	case <-time.After(50 * time.Millisecond):
	}
	letGo()
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if err := <-refused; !errors.Is(err, errExists) {
		t.Fatalf("second create = %v, want errExists", err)
	}
	if !visible() {
		t.Error("update not visible after the refusal that depended on it")
	}
}

// TestSingleStreamLayoutCompat: the one-stream log is the paper's plain
// single file both ways. A directory whose log was written by a bare
// wal.Log — what every store before the unified pipeline wrote by default —
// recovers, and what the store then writes at one stream is still a dense
// single file that a plain wal.Replay reads, with no stream files beside it.
func TestSingleStreamLayoutCompat(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	s.Close()
	logName := checkpoint.LogName(1)

	res, err := wal.Replay(fs, logName, 1, wal.ReplayOptions{}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(fs, logName, res, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		payload, err := pickle.Marshal(&logRecord{U: &putKV{Key: fmt.Sprintf("old%d", i), Value: "1"}})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	s = openKV(t, fs)
	if got := s.AppliedSeq(); got != 5 {
		t.Fatalf("recovered %d updates from the single-log layout, want 5", got)
	}
	for i := 0; i < 3; i++ {
		put(t, s, fmt.Sprintf("new%d", i), "1")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasPrefix(n, logName+".") {
			t.Errorf("one-stream store left stream file %s", n)
		}
	}
	var keys []string
	res, err = wal.Replay(fs, logName, 1, wal.ReplayOptions{}, func(seq uint64, payload []byte) error {
		var rec logRecord
		if err := pickle.Unmarshal(payload, &rec); err != nil {
			return err
		}
		keys = append(keys, rec.U.(*putKV).Key)
		return nil
	})
	if err != nil {
		t.Fatalf("plain single-log replay of the one-stream layout: %v", err)
	}
	want := "old0 old1 old2 old3 old4 new0 new1 new2"
	if res.Entries != 8 || strings.Join(keys, " ") != want {
		t.Errorf("single-log replay read %d entries %v, want %s", res.Entries, keys, want)
	}
}

// TestTracedCommitSpans: a traced update is one update.commit span whose
// children name every phase of the protocol, on both branches — inside a
// checkpoint too, whose files no commit's sync writes.
func TestTracedCommitSpans(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			var mu sync.Mutex
			var events []obs.Event
			tr := obs.FuncTracer(func(e obs.Event) {
				mu.Lock()
				events = append(events, e)
				mu.Unlock()
			})
			s := kind.open(t, vfs.NewMem(1), func(c *Config) { c.Tracer = tr })
			defer s.Close()

			// children applies one traced update and returns the names of
			// the spans under its update.commit root.
			children := func(key string) map[string]bool {
				t.Helper()
				sc := obs.NewRootContext()
				if _, err := s.ApplyBatchTraced([]Update{kind.put(key, "v")}, sc, nil); err != nil {
					t.Fatal(err)
				}
				mu.Lock()
				defer mu.Unlock()
				var root obs.Event
				for _, e := range events {
					if e.Trace == sc.Trace && e.Name == "update.commit" {
						root = e
					}
				}
				if root.Span == 0 || root.Parent != sc.Span {
					t.Fatalf("no update.commit span under the caller's context (got %+v)", root)
				}
				names := map[string]bool{}
				for _, e := range events {
					if e.Trace == sc.Trace && e.Parent == root.Span {
						names[e.Name] = true
					}
				}
				return names
			}

			got := children("plain")
			for _, want := range []string{"lock.wait", "verify", "pickle", "wal.append", "wal.sync", "apply"} {
				if !got[want] {
					t.Errorf("traced commit has no %s span (have %v)", want, got)
				}
			}
			var inWindow map[string]bool
			s.SetCheckpointStageHook(func(st CheckpointStage) {
				if st == StageTailOpen {
					inWindow = children("in-window")
				}
			})
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			s.SetCheckpointStageHook(nil)
			if len(inWindow) != len(got) || !inWindow["wal.sync"] {
				t.Errorf("commit inside a checkpoint has spans %v, want those of a plain commit, %v", inWindow, got)
			}
		})
	}
}

// TestOnePublicationPerCommit: a commit call publishes one version — one
// per single update, one per batch.
func TestOnePublicationPerCommit(t *testing.T) {
	reg := obs.NewRegistry()
	s := openVKV(t, func(c *Config) { c.Obs = reg })
	defer s.Close()
	published := reg.Counter("core_versions_published")

	before := published.Value()
	if err := s.Apply(&putVKV{Key: "one", Value: "1"}); err != nil {
		t.Fatal(err)
	}
	if got := published.Value() - before; got != 1 {
		t.Errorf("a single update published %d versions, want 1", got)
	}

	before = published.Value()
	batch := make([]Update, 5)
	for i := range batch {
		batch[i] = &putVKV{Key: fmt.Sprintf("b%d", i), Value: "1"}
	}
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}
	if got := published.Value() - before; got != 1 {
		t.Errorf("a batch of %d published %d versions, want 1", len(batch), got)
	}
	snap, err := s.SnapshotAt()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Seq() != 6 {
		t.Errorf("published seq %d after 6 updates", snap.Seq())
	}
}

// panicky panics in its Verify. It is never logged, so it needs no
// registration (which would change the log head's type table).
type panicky struct{}

func (panicky) Verify(any) error { panic("verify bug") }
func (panicky) Apply(any) error  { return nil }

// TestPanicInCommitPoisons: a panic inside a commit — in an update's Verify,
// under the update lock, or in the logged hook, under the exclusive lock —
// reaches its caller and poisons the store with an error naming it, instead
// of leaving the lock taken: the next update fails within 2 s.
func TestPanicInCommitPoisons(t *testing.T) {
	for _, kind := range kvKinds {
		for _, tc := range []struct {
			name   string
			commit func(s *Store)
		}{
			{"verify", func(s *Store) { s.Apply(panicky{}) }},
			{"logged", func(s *Store) {
				s.ApplyBatchTraced([]Update{kind.put("a", "1")}, obs.SpanContext{}, func(int) { panic("logged bug") })
			}},
		} {
			t.Run(kind.name+"/"+tc.name, func(t *testing.T) {
				s := kind.open(t, vfs.NewMem(1))
				func() {
					defer func() {
						if recover() == nil {
							t.Error("the panic did not reach the committer")
						}
					}()
					tc.commit(s)
				}()
				done := make(chan error, 1)
				go func() { done <- s.Apply(kind.put("k", "v")) }()
				select {
				case err := <-done:
					if err == nil || !strings.Contains(err.Error(), tc.name+" bug") {
						t.Fatalf("the next Apply after a panic = %v, want the poison naming the panic", err)
					}
				case <-time.After(2 * time.Second):
					t.Fatal("the next Apply is still blocked 2s after a commit panicked")
				}
				s.Close()
			})
		}
	}
}
