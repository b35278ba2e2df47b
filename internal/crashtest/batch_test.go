package crashtest

import (
	"bytes"
	"math/rand"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// TestShardedReplayDifferential drives the same 10k-op seeded workload
// through a store one update at a time and in batches of four — several
// entries per log write — restarts both, and requires byte-identical pickled
// roots that also match the in-memory oracle.
func TestShardedReplayDifferential(t *testing.T) {
	const entries = 10000
	recovered := func(batch int) []byte {
		fs := vfs.NewMem(13)
		srv, err := nameserver.Open(nameserver.Config{FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		oracle := nameserver.NewTree()
		var pending []core.Update
		for i := 0; i < entries; i++ {
			u := genUpdate(rng, oracle, i)
			if err := u.Apply(oracle); err != nil {
				t.Fatalf("oracle apply %d: %v", i, err)
			}
			if pending = append(pending, u); len(pending) == batch || i == entries-1 {
				if err := srv.Store().ApplyBatch(pending); err != nil {
					t.Fatalf("batch=%d: store apply %d: %v", batch, i, err)
				}
				pending = pending[:0]
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		srv, err = nameserver.Open(nameserver.Config{FS: fs})
		if err != nil {
			t.Fatalf("batch=%d: recovery failed: %v", batch, err)
		}
		defer srv.Close()
		if seq := srv.Store().AppliedSeq(); seq != entries {
			t.Errorf("batch=%d: recovered %d updates, want %d", batch, seq, entries)
		}
		if got, err := fingerprint(srv.Store()); err != nil || got != fingerprintTree(oracle) {
			t.Errorf("batch=%d: recovered state diverges from the oracle (%v)", batch, err)
		}
		var buf []byte
		if err := srv.Store().View(func(root any) error {
			var perr error
			buf, perr = pickle.AppendMarshal(nil, root.(*nameserver.Tree))
			return perr
		}); err != nil {
			t.Fatal(err)
		}
		return buf
	}
	if !bytes.Equal(recovered(1), recovered(4)) {
		t.Error("the batched store's post-restart root is not byte-identical to the unbatched one")
	}
}

// TestShardedStoreTorture sweeps every crash point of one more seed of the
// store-mode workload: recovery must surface exactly the acknowledged
// prefix.
func TestShardedStoreTorture(t *testing.T) {
	res, err := Run(Config{Seed: 21, Ops: 12, Mode: ModeStore, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points < 20 {
		t.Fatalf("suspiciously few crash points: %d", res.Points)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestShardedStoreTortureBatched batches updates so each log write carries
// several entries: crash points land inside a multi-entry write, and a batch
// whose sync never completed was never acknowledged — recovery may keep any
// prefix of it, never less than what was acknowledged.
func TestShardedStoreTortureBatched(t *testing.T) {
	res, err := Run(Config{Seed: 22, Ops: 12, Mode: ModeStore, Batch: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestShardedReplicaTorture is the replica-mode counterpart: node "a"
// commits batches, crashes at every op index, and anti-entropy with the
// crash-free peer must restore every acknowledged update before the
// workload finishes on both replicas.
func TestShardedReplicaTorture(t *testing.T) {
	res, err := Run(Config{Seed: 23, Ops: 8, Mode: ModeReplica, Batch: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestShardedOverlapTorture commits batches while each checkpoint is in
// flight, so its tail carries several entries per flush, and every crash
// point across the tail's write and sync and the switch must still recover
// the exact acked prefix.
func TestShardedOverlapTorture(t *testing.T) {
	res, err := Run(Config{Seed: 24, Ops: 10, Mode: ModeStore, Batch: 2, OverlapCheckpoints: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}
