package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

// Acked updates from concurrent committers must survive a crash: Apply only
// returns after the (possibly shared) sync covers the update.
func TestGroupCommitAckedDurable(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			for seed := int64(0); seed < 10; seed++ {
				fs := vfs.NewMem(seed)
				s := kind.open(t, fs)

				const writers, each = 4, 10
				var wg sync.WaitGroup
				acked := make([][]string, writers)
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < each; i++ {
							k := fmt.Sprintf("w%d-%d", w, i)
							if err := s.Apply(kind.put(k, "v")); err != nil {
								return
							}
							acked[w] = append(acked[w], k)
						}
					}(w)
				}
				wg.Wait()
				// Crash without Close: anything acked must be on disk already.
				fs.CrashTorn(512)

				s2, err := Open(Config{FS: fs, NewRoot: kind.newRoot})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				got := kind.snapshot(t, s2)
				for w := range acked {
					for _, k := range acked[w] {
						if _, ok := got[k]; !ok {
							t.Fatalf("seed %d: acked update %s lost", seed, k)
						}
					}
				}
				s2.Close()
			}
		})
	}
}

func TestLogBytesResetAfterCheckpoint(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	if s.Stats().LogBytes == 0 {
		t.Fatal("log empty after updates")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LogBytes != 0 || st.LogEntries != 0 {
		t.Errorf("log not reset: %d bytes, %d entries", st.LogBytes, st.LogEntries)
	}
}

func TestViewErrorPropagates(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	boom := errors.New("reader error")
	if err := s.View(func(any) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
}

func TestCloseDuringCheckpointTimer(t *testing.T) {
	// Close must stop the timer goroutine without racing a checkpoint.
	for i := 0; i < 20; i++ {
		fs := vfs.NewMem(int64(i))
		s := openKV(t, fs)
		s.CheckpointEvery(time.Millisecond)
		put(t, s, "k", "v")
		time.Sleep(time.Duration(i%5) * time.Millisecond)
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestConcurrentCheckpointsSerialize(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- s.Checkpoint()
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// Versions advanced by exactly 8 (each checkpoint serialized).
	if v := s.Version(); v != 9 {
		t.Errorf("version %d after 8 checkpoints", v)
	}
}

func TestUpdatesDuringCheckpointBlockButComplete(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()
	for i := 0; i < 500; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	done := make(chan error, 1)
	go func() { done <- s.Checkpoint() }()
	// Updates issued while the checkpoint runs must succeed afterwards.
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("during%d", i), "v")
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, ok := get(t, s, fmt.Sprintf("during%d", i)); !ok {
			t.Fatalf("during%d lost", i)
		}
	}
}

func TestOpenConfigValidation(t *testing.T) {
	if _, err := Open(Config{NewRoot: newKV}); err == nil {
		t.Error("missing FS accepted")
	}
	if _, err := Open(Config{FS: vfs.NewMem(1)}); err == nil {
		t.Error("missing NewRoot accepted")
	}
}

func TestRetainZeroMatchesPaperBaseProtocol(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.Retain = 0 })
	put(t, s, "a", "1")
	s.Checkpoint()
	put(t, s, "b", "2")
	s.Checkpoint()
	s.Close()
	names, _ := fs.List()
	// Exactly: checkpoint3, logfile3, version.
	if len(names) != 3 {
		t.Errorf("directory after two checkpoints with retain 0: %v", names)
	}
}
