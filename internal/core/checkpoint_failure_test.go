package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/obs"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// TestCheckpointStepFailures fails each step of the one checkpoint protocol
// in turn and states what becomes of the store: which error Checkpoint
// returns, whether the store is poisoned, whether the next update is
// accepted, which version is current — and that a restart recovers exactly
// the acknowledged updates, one of them committed inside the mirror window.
// DESIGN §6 carries the same table.
func TestCheckpointStepFailures(t *testing.T) {
	boom := errors.New("injected checkpoint fault")
	rows := []struct {
		step string
		// delta makes the failing checkpoint an incremental one (a full
		// base and a little churn come first).
		delta bool
		// arm injects the fault; it runs before Checkpoint when at is "",
		// else on the checkpointing goroutine at that stage. next is the
		// version being switched to. fails is the file operation that then
		// fails.
		at    CheckpointStage
		arm   func(ffs *faultfs.FS, next uint64)
		fails string
		// poisoned: the store refuses all further work. switched: version
		// next is current (in memory if healthy, on disk either way).
		poisoned, switched bool
	}{
		{step: "Prepare", fails: "create checkpoint2", arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailName(checkpoint.CheckpointName(next), boom)
		}},
		{step: "PrepareDelta", fails: "create checkpoint3.d", delta: true, arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailName(checkpoint.DeltaName(next), boom)
		}},
		{step: "CreateShardLogFiles", fails: "create logfile2", arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailName(checkpoint.LogName(next), boom)
		}},
		// Syncs still to come once the window is open: the checkpoint
		// file's, the new log file's creation, then the mirror drain's.
		{step: "SyncMirror", fails: "sync logfile2", at: StageMirrorOpen, poisoned: true, arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailSyncAt(3, boom)
		}},
		{step: "CommitNewVersion", fails: "create newversion", at: StageFileWritten, arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailName("newversion", boom)
		}},
		// faultfs names a rename "old -> new": this matches the install's
		// rename alone, not the newversion write before it.
		{step: "InstallVersion", fails: "rename newversion -> version", at: StageFileWritten, poisoned: true, switched: true, arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailName(" -> version", boom)
		}},
		{step: "Finish", fails: "remove logfile1", at: StageFlipped, switched: true, arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailName(checkpoint.LogName(next-1), boom)
		}},
		{step: "Finish after a delta", fails: "remove logfile2", delta: true, at: StageFlipped, switched: true, arm: func(ffs *faultfs.FS, next uint64) {
			ffs.FailName(checkpoint.LogName(next-1), boom)
		}},
	}
	for _, row := range rows {
		t.Run(row.step, func(t *testing.T) {
			reg := obs.NewRegistry()
			ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never, TraceCap: 4096})
			s := openDKV(t, ffs, func(c *Config) { c.Obs = reg })
			acked := map[string]string{}
			ack := func(k, v string) {
				t.Helper()
				if err := s.Apply(&putDKV{Key: k, Value: v}); err != nil {
					t.Fatalf("put %s: %v", k, err)
				}
				acked[k] = v
			}
			for i := 0; i < 50; i++ {
				ack(fmt.Sprintf("key%04d", i), "populated")
			}
			if row.delta {
				if err := s.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				ack("key0000", "churned")
			}
			next := s.Version() + 1
			wantVersion := next - 1
			if row.switched {
				wantVersion = next
			}

			s.SetCheckpointStageHook(func(stage CheckpointStage) {
				if stage == StageMirrorOpen {
					ack("in-window", "1")
				}
				if stage == row.at {
					row.arm(ffs, next)
				}
			})
			if row.at == "" {
				row.arm(ffs, next)
			}
			if err := s.Checkpoint(); !errors.Is(err, boom) {
				t.Fatalf("Checkpoint = %v, want %v", err, boom)
			}
			s.SetCheckpointStageHook(nil)
			ffs.ClearFaults()
			// The first injected failure is the file operation the row
			// names, so each row provably fails the step it claims to.
			for _, r := range ffs.Trace() {
				if r.Injected != "" {
					if got := r.Op.String() + " " + r.Name; !strings.HasPrefix(got, row.fails) {
						t.Fatalf("the injected failure hit %q, want %q...", got, row.fails)
					}
					break
				}
			}

			// Every failure surfaces the same three ways.
			if err := s.LastCheckpointErr(); !errors.Is(err, boom) {
				t.Errorf("LastCheckpointErr = %v, want %v", err, boom)
			}
			if got := reg.Counter("core_checkpoint_errors").Value(); got != 1 {
				t.Errorf("core_checkpoint_errors = %d, want 1", got)
			}
			if err := s.Err(); (err != nil) != row.poisoned {
				t.Fatalf("Err = %v, want poisoned=%v", err, row.poisoned)
			}
			err := s.Apply(&putDKV{Key: "after", Value: "1"})
			if row.poisoned {
				if !errors.Is(err, boom) {
					t.Fatalf("Apply on the poisoned store = %v, want %v", err, boom)
				}
			} else {
				if err != nil {
					t.Fatalf("Apply after the failed checkpoint: %v", err)
				}
				acked["after"] = "1"
				if got := s.Version(); got != wantVersion {
					t.Fatalf("running at version %d, want %d", got, wantVersion)
				}
				// The disk healed: the next checkpoint succeeds over
				// whatever the failed one left, and clears the error.
				if err := s.Checkpoint(); err != nil {
					t.Fatalf("checkpoint after heal: %v", err)
				}
				if err := s.LastCheckpointErr(); err != nil {
					t.Errorf("LastCheckpointErr after heal: %v", err)
				}
				if got := reg.Counter("core_checkpoint_errors").Value(); got != 1 {
					t.Errorf("core_checkpoint_errors = %d after heal, want 1", got)
				}
				ack("after-heal", "1")
			}
			if err := s.Close(); err != nil && !row.poisoned {
				t.Fatalf("Close: %v", err)
			}

			s2 := openDKV(t, ffs)
			defer s2.Close()
			if got := dkvData(t, s2); !reflect.DeepEqual(got, acked) {
				t.Fatalf("restart recovered %d keys, acknowledged %d", len(got), len(acked))
			}
			if got := s2.Version(); row.poisoned && got != wantVersion {
				t.Fatalf("restart recovered version %d, want %d", got, wantVersion)
			}
		})
	}
}

// TestFinishFailureKeepsDeltaBaseCurrent: a checkpoint whose retention
// cleanup fails has still switched versions, so the next delta must diff
// against — and claim to start from — the version that is on disk, not the
// one before it; otherwise restart refuses the chain.
func TestFinishFailureKeepsDeltaBaseCurrent(t *testing.T) {
	boom := errors.New("injected")
	ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never})
	s := openDKV(t, ffs)
	populateDKV(t, s, 200)
	if err := s.Checkpoint(); err != nil { // v2: full
		t.Fatal(err)
	}
	if err := s.Apply(&putDKV{Key: "a", Value: "1"}); err != nil {
		t.Fatal(err)
	}
	ffs.FailName(checkpoint.LogName(2), boom) // v3's cleanup cannot delete v2's log
	if err := s.Checkpoint(); !errors.Is(err, boom) {
		t.Fatalf("Checkpoint = %v, want %v", err, boom)
	}
	ffs.ClearFaults()
	if err := s.Apply(&putDKV{Key: "b", Value: "2"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil { // v4: a delta onto v3
		t.Fatal(err)
	}
	if !vfs.Exists(ffs, checkpoint.DeltaName(4)) {
		t.Fatal("the checkpoint after the failed cleanup was not a delta: the script no longer reaches the bug")
	}
	want := dkvData(t, s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openDKV(t, ffs)
	defer s2.Close()
	if got := dkvData(t, s2); !reflect.DeepEqual(got, want) {
		t.Fatalf("restart recovered %d keys, acknowledged %d", len(got), len(want))
	}
}
