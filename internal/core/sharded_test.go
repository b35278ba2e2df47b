package core

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"smalldb/internal/vfs"
)

func shardedCfg(shards int) func(*Config) {
	return func(c *Config) { c.LogShards = shards }
}

// TestShardedStoreRoundTrip writes through a 4-stream log, checks the
// stream files exist on disk, and restarts: replay must merge the streams
// back into exactly the committed state.
func TestShardedStoreRoundTrip(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, shardedCfg(4))
	for i := 0; i < 40; i++ {
		put(t, s, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	for _, name := range []string{"logfile1", "logfile1.1", "logfile1.2", "logfile1.3"} {
		if _, err := fs.Open(name); err != nil {
			t.Fatalf("stream %s missing after sharded writes: %v", name, err)
		}
	}

	s2 := openKV(t, fs, shardedCfg(4))
	defer s2.Close()
	for i := 0; i < 40; i++ {
		if v, ok := get(t, s2, fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q, %v after restart", i, v, ok)
		}
	}
}

// TestShardedMatchesSingleStream runs one seeded workload against a sharded
// store and a single-stream store and compares the roots after restart.
func TestShardedMatchesSingleStream(t *testing.T) {
	run := func(shards int) map[string]string {
		fs := vfs.NewMem(1)
		s := openKV(t, fs, shardedCfg(shards))
		for i := 0; i < 200; i++ {
			put(t, s, fmt.Sprintf("k%d", i%50), fmt.Sprintf("v%d", i))
			if i%70 == 69 {
				if err := s.Apply(&delKV{Key: fmt.Sprintf("k%d", i%50)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Close()
		s2 := openKV(t, fs, shardedCfg(shards))
		defer s2.Close()
		var out map[string]string
		if err := s2.View(func(root any) error {
			out = root.(*kvRoot).Data
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	single, sharded := run(1), run(4)
	if !reflect.DeepEqual(single, sharded) {
		t.Fatalf("sharded restart state diverged from single-stream:\nsingle:  %v\nsharded: %v", single, sharded)
	}
}

// TestShardedConcurrentAppliers hammers the sharded commit pipeline from
// many goroutines (the -race job's main subject) and restarts to verify the
// merged log holds every acknowledged update.
func TestShardedConcurrentAppliers(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, shardedCfg(4))
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Apply(&putKV{Key: fmt.Sprintf("w%d-%d", w, i), Value: "x"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openKV(t, fs, shardedCfg(4))
	defer s2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if _, ok := get(t, s2, fmt.Sprintf("w%d-%d", w, i)); !ok {
				t.Fatalf("acknowledged update w%d-%d missing after restart", w, i)
			}
		}
	}
}

// TestShardedShardCountChange restarts a sharded store under different
// LogShards settings: recovery replays whatever streams exist, so the knob
// can change (up, down, back to one) without losing data.
func TestShardedShardCountChange(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, shardedCfg(3))
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("a%d", i), "1")
	}
	s.Close()

	for round, shards := range []int{1, 5, 2} {
		s = openKV(t, fs, shardedCfg(shards))
		for i := 0; i < 20; i++ {
			if _, ok := get(t, s, fmt.Sprintf("a%d", i)); !ok {
				t.Fatalf("round %d (shards=%d): a%d missing", round, shards, i)
			}
		}
		put(t, s, fmt.Sprintf("r%d", round), "1")
		s.Close()
	}
}

// TestShardedCheckpoint checkpoints over a sharded log with both root kinds
// — pickled under the update lock, and from a pinned snapshot: the mirror
// window must dual-write every stream, and the new version must replay
// cleanly.
func TestShardedCheckpoint(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			fs := vfs.NewMem(1)
			s := kind.open(t, fs, shardedCfg(4))
			for i := 0; i < 30; i++ {
				if err := s.Apply(kind.put(fmt.Sprintf("pre%d", i), "1")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if err := s.Apply(kind.put(fmt.Sprintf("post%d", i), "2")); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			s2 := kind.open(t, fs, shardedCfg(4))
			defer s2.Close()
			got := kind.snapshot(t, s2)
			for i := 0; i < 30; i++ {
				if got[fmt.Sprintf("pre%d", i)] != "1" || got[fmt.Sprintf("post%d", i)] != "2" {
					t.Fatalf("pre%d/post%d missing after checkpoint+restart", i, i)
				}
			}
		})
	}
}

// TestShardedDeferredPublish: with a versioned root on a sharded log,
// publication is deferred to the epoch barrier — but Apply's return still
// happens after it, so an applier reads its own write through the lock-free
// View path.
func TestShardedDeferredPublish(t *testing.T) {
	fs := vfs.NewMem(1)
	cfg := Config{FS: fs, NewRoot: newVKV, Retain: 1, LogShards: 4}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 25; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := s.Apply(&putVKV{Key: "k", Value: v}); err != nil {
			t.Fatal(err)
		}
		var got string
		if err := s.View(func(root any) error {
			got = root.(*vkvRoot).Data["k"]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("read-your-writes broken on sharded log: got %q, want %q", got, v)
		}
		snap, err := s.SnapshotAt()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Seq() != uint64(i+1) {
			t.Fatalf("published seq %d after %d applies", snap.Seq(), i+1)
		}
		snap.Release()
	}
}

// TestShardedRejectsSkipDamaged: the skip-damaged-entry recovery mode is a
// single-stream feature (see wal sharded replay docs); asking for both must
// fail at Open rather than silently mis-recover later.
func TestShardedRejectsSkipDamaged(t *testing.T) {
	_, err := Open(Config{FS: vfs.NewMem(1), NewRoot: newKV, Retain: 1,
		LogShards: 2, SkipDamagedLogEntries: true})
	if err == nil {
		t.Fatal("Open accepted LogShards>1 with SkipDamagedLogEntries")
	}
}

// TestShardedApplyBatch commits batches through one epoch barrier and
// verifies prefix semantics when a mid-batch Verify fails.
func TestShardedApplyBatch(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, shardedCfg(4), func(c *Config) { c.Deterministic = true })

	var batch []Update
	for i := 0; i < 10; i++ {
		batch = append(batch, &putKV{Key: fmt.Sprintf("b%d", i), Value: "1"})
	}
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}

	// An invalid update mid-batch: the prefix commits, the rest does not.
	bad := []Update{
		&putKV{Key: "good", Value: "1"},
		&putKV{Key: "", Value: "boom"}, // fails Verify
		&putKV{Key: "never", Value: "1"},
	}
	if err := s.ApplyBatch(bad); err == nil {
		t.Fatal("batch with failing Verify reported success")
	}
	s.Close()

	s2 := openKV(t, fs, shardedCfg(4))
	defer s2.Close()
	for i := 0; i < 10; i++ {
		if _, ok := get(t, s2, fmt.Sprintf("b%d", i)); !ok {
			t.Fatalf("batched b%d missing after restart", i)
		}
	}
	if _, ok := get(t, s2, "good"); !ok {
		t.Fatal("committed prefix of failed batch missing")
	}
	if _, ok := get(t, s2, "never"); ok {
		t.Fatal("update after failed Verify was committed")
	}
}

// TestShardedHistory reads the audit trail back off a sharded log (current
// plus retained eras) and checks global sequence order.
func TestShardedHistory(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, shardedCfg(3), func(c *Config) { c.Retain = 2 })
	for i := 0; i < 15; i++ {
		put(t, s, fmt.Sprintf("h%d", i), "1")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 30; i++ {
		put(t, s, fmt.Sprintf("h%d", i), "1")
	}
	defer s.Close()

	var seqs []uint64
	if err := s.History(func(seq uint64, u Update) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 30 {
		t.Fatalf("history returned %d entries, want 30", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("history seq[%d] = %d, want %d", i, seq, i+1)
		}
	}
}
