package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

// TestUpdatesProgressDuringSlowCheckpoint is the tentpole's concurrency
// property: while a checkpoint drags a large root through a deliberately
// slow disk, updates and enquiries keep completing, each far faster than
// the checkpoint itself, and the update-lock stall the checkpoint charges
// is a small fraction of its total duration.
func TestUpdatesProgressDuringSlowCheckpoint(t *testing.T) {
	// ~4 MiB/s: the checkpoint's megabyte takes ~250ms; an update's
	// ~100-byte log write costs microseconds of transfer.
	slow := vfs.NewMetered(vfs.NewMem(1), vfs.Profile{WriteBytesPerSec: 4 << 20}, 1)
	s := openKV(t, slow, func(c *Config) { c.Retain = 1 })
	defer s.Close()

	// ~1 MiB of root state.
	val := strings.Repeat("x", 4096)
	for i := 0; i < 256; i++ {
		put(t, s, fmt.Sprintf("big%d", i), val)
	}

	windowOpen := make(chan struct{})
	var once sync.Once
	s.SetCheckpointStageHook(func(stage CheckpointStage) {
		if stage == StageTailOpen {
			once.Do(func() { close(windowOpen) })
		}
	})
	defer s.SetCheckpointStageHook(nil)

	cpDone := make(chan error, 1)
	cpStart := time.Now()
	go func() { cpDone <- s.Checkpoint() }()
	<-windowOpen

	// Hammer updates and enquiries until the checkpoint finishes.
	var committed int
	var worst time.Duration
	for {
		select {
		case err := <-cpDone:
			if err != nil {
				t.Fatalf("checkpoint: %v", err)
			}
			cpElapsed := time.Since(cpStart)
			if committed == 0 {
				t.Fatal("no update committed during the checkpoint window")
			}
			if worst > cpElapsed/2 {
				t.Errorf("worst in-window update took %v of a %v checkpoint: updates are stalling on checkpoint I/O", worst, cpElapsed)
			}
			st := s.Stats()
			if st.CheckpointStallTime > cpElapsed/2 {
				t.Errorf("update-lock stall %v of a %v checkpoint", st.CheckpointStallTime, cpElapsed)
			}
			if st.CheckpointStallDist.Count != 1 {
				t.Errorf("stall histogram count = %d, want 1", st.CheckpointStallDist.Count)
			}
			// Every in-window update must have reached the new log.
			if got, ok := get(t, s, fmt.Sprintf("during%d", committed-1)); !ok || got != "v" {
				t.Errorf("last in-window update lost: %q %v", got, ok)
			}
			return
		default:
		}
		t0 := time.Now()
		put(t, s, fmt.Sprintf("during%d", committed), "v")
		if _, ok := get(t, s, "big0"); !ok {
			t.Fatal("enquiry failed during checkpoint")
		}
		if d := time.Since(t0); d > worst {
			worst = d
		}
		committed++
	}
}

// TestMirroredEntriesSurviveReopen: updates committed while a checkpoint is
// in flight must be visible after a clean close and reopen. Those before the
// flip reach the new log as its tail, copied from the old one; the one at
// the flipped stage is appended to the new log alone.
func TestMirroredEntriesSurviveReopen(t *testing.T) {
	fs := vfs.NewMem(1)
	var tail any
	tr := obs.FuncTracer(func(e obs.Event) {
		if e.Name == "checkpoint.finish" {
			for _, a := range e.Attrs {
				if a.Key == "tail" {
					tail = a.Value
				}
			}
		}
	})
	s := openKV(t, fs, func(c *Config) { c.Tracer = tr })
	put(t, s, "before", "1")

	s.SetCheckpointStageHook(func(stage CheckpointStage) {
		if err := s.Apply(&putKV{Key: "at-" + string(stage), Value: "v"}); err != nil {
			t.Errorf("apply at %s: %v", stage, err)
		}
	})
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	s.SetCheckpointStageHook(nil)
	if tail != int64(2) {
		t.Errorf("checkpoint.finish tail = %v, want 2", tail)
	}
	s.Close()

	s2 := openKV(t, fs)
	defer s2.Close()
	for _, k := range []string{"before", "at-tail-open", "at-file-written", "at-flipped"} {
		if _, ok := get(t, s2, k); !ok {
			t.Errorf("key %s lost across the checkpoint", k)
		}
	}
}

// TestAutoCheckpointOffUpdatePath: an automatic checkpoint runs on its own
// goroutine, so updates keep committing while one is in flight — proved
// deterministically by holding the checkpoint open at a stage and applying
// through it.
func TestAutoCheckpointOffUpdatePath(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.MaxLogEntries = 8 })
	defer s.Close()

	inWindow := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.SetCheckpointStageHook(func(stage CheckpointStage) {
		if stage == StageTailOpen {
			once.Do(func() {
				close(inWindow)
				<-release
			})
		}
	})
	defer s.SetCheckpointStageHook(nil)

	// Cross the threshold; the auto checkpoint parks at tail-open.
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	<-inWindow
	// The checkpoint is provably in flight and yet updates commit.
	for i := 0; i < 5; i++ {
		put(t, s, fmt.Sprintf("win%d", i), "v")
	}
	close(release)
	waitCheckpoints(t, s, 1)
	if err := s.LastCheckpointErr(); err != nil {
		t.Fatalf("auto checkpoint failed: %v", err)
	}
}

// TestCloseWaitsForInflightAutoCheckpoint: Close must let a running
// background checkpoint finish rather than yanking the log out from under
// it.
func TestCloseWaitsForInflightAutoCheckpoint(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.MaxLogEntries = 8 })

	started := make(chan struct{})
	var once sync.Once
	s.SetCheckpointStageHook(func(stage CheckpointStage) {
		if stage == StageTailOpen {
			once.Do(func() { close(started) })
			time.Sleep(20 * time.Millisecond) // hold the window open across Close
		}
	})
	for i := 0; i < 10; i++ {
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	<-started
	if err := s.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if got := s.Stats().Checkpoints; got != 1 {
		t.Errorf("checkpoints completed = %d, want 1 (Close must wait)", got)
	}
	if err := s.LastCheckpointErr(); err != nil {
		t.Errorf("in-flight checkpoint failed under Close: %v", err)
	}

	// The checkpointed state reopens cleanly.
	s2 := openKV(t, fs)
	defer s2.Close()
	if _, ok := get(t, s2, "k9"); !ok {
		t.Error("k9 lost")
	}
}

// TestConcurrentCheckpointChurn exercises Apply/View/Checkpoint/Stats/
// History from many goroutines at once; its value is under -race, where any
// unsynchronized access in the checkpoint's tail and flip would trip the
// detector.
func TestConcurrentCheckpointChurn(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	defer s.Close()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				put(t, s, fmt.Sprintf("w%d-%d", w, i%50), "v")
				s.View(func(root any) error { return nil })
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 8; i++ {
			if err := s.Checkpoint(); err != nil {
				t.Errorf("checkpoint %d: %v", i, err)
				return
			}
			_ = s.Stats()
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			_ = s.Stats()
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(150 * time.Millisecond)
	close(stop)
	wg.Wait()
}
