package crashtest

import (
	"bytes"
	"math/rand"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// TestShardedReplayDifferential is the correctness proof for the sharded
// log: drive the same 10k-op seeded workload through a 4-stream store and
// a single-stream store, restart both, and require byte-identical pickled
// roots — which must also match the in-memory oracle. The sharded image is
// additionally recovered sequentially (ReplayWorkers=1) and pipelined
// (ReplayWorkers=8): the sequence-merge heap must not change what any
// stream layout recovers to.
func TestShardedReplayDifferential(t *testing.T) {
	const entries = 10000
	build := func(shards int) vfs.FS {
		fs := vfs.NewMem(13)
		srv, err := nameserver.Open(nameserver.Config{FS: fs, LogShards: shards})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(13))
		oracle := nameserver.NewTree()
		for i := 0; i < entries; i++ {
			u := genUpdate(rng, oracle, i)
			if err := u.Apply(oracle); err != nil {
				t.Fatalf("oracle apply %d: %v", i, err)
			}
			if err := srv.Store().Apply(u); err != nil {
				t.Fatalf("shards=%d: store apply %d: %v", shards, i, err)
			}
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		return fs
	}

	rng := rand.New(rand.NewSource(13))
	oracle := nameserver.NewTree()
	for i := 0; i < entries; i++ {
		if err := genUpdate(rng, oracle, i).Apply(oracle); err != nil {
			t.Fatal(err)
		}
	}
	wantFP := fingerprintTree(oracle)

	pickled := func(fs vfs.FS, shards, workers int) []byte {
		srv, err := nameserver.Open(nameserver.Config{FS: fs, LogShards: shards, ReplayWorkers: workers})
		if err != nil {
			t.Fatalf("shards=%d workers=%d: recovery failed: %v", shards, workers, err)
		}
		defer srv.Close()
		if seq := srv.Store().AppliedSeq(); seq != entries {
			t.Errorf("shards=%d workers=%d: recovered %d updates, want %d", shards, workers, seq, entries)
		}
		if got, err := fingerprint(srv.Store(), storeTree); err != nil || got != wantFP {
			t.Errorf("shards=%d workers=%d: recovered state diverges from the oracle (%v)", shards, workers, err)
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

	singleFS, shardedFS := build(1), build(4)
	single := pickled(singleFS, 1, 0)
	shardedSeq := pickled(shardedFS, 4, 1)
	shardedPipe := pickled(shardedFS, 4, 8)
	if !bytes.Equal(single, shardedSeq) {
		t.Error("sharded post-restart root is not byte-identical to the single-stream root")
	}
	if !bytes.Equal(shardedSeq, shardedPipe) {
		t.Error("pipelined sharded replay diverges from sequential sharded replay")
	}
}

// TestShardedStoreTorture sweeps every crash point of a store-mode workload
// on a 4-stream log: recovery must surface exactly the epoch-acked prefix —
// acknowledged updates durable across their streams, unacknowledged epochs
// fully discarded by the gap rule.
func TestShardedStoreTorture(t *testing.T) {
	res, err := Run(Config{Seed: 21, Ops: 12, Mode: ModeStore, LogShards: 4, Logf: t.Logf})
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

// TestShardedStoreTortureBatched batches updates so each epoch spans
// several streams: the serial seal then syncs them one at a time, and the
// sweep's crash points land after some streams of an epoch synced but
// before the rest — the whole epoch must be discarded on recovery, because
// it was never acknowledged.
func TestShardedStoreTortureBatched(t *testing.T) {
	res, err := Run(Config{Seed: 22, Ops: 12, Mode: ModeStore, LogShards: 4, Batch: 3, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestShardedReplicaTorture is the replica-mode counterpart: node "a" runs
// a 4-stream log with batched epochs, crashes at every op index, and
// anti-entropy with the crash-free peer must restore every acknowledged
// update before the workload finishes on both replicas.
func TestShardedReplicaTorture(t *testing.T) {
	res, err := Run(Config{Seed: 23, Ops: 8, Mode: ModeReplica, LogShards: 4, Batch: 2, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestShardedOverlapTorture commits updates inside each checkpoint's mirror
// window on a sharded log: the window dual-writes every stream, and every
// crash point across the multi-file attach/sync/switch must still recover
// the exact acked prefix.
func TestShardedOverlapTorture(t *testing.T) {
	res, err := Run(Config{Seed: 24, Ops: 10, Mode: ModeStore, LogShards: 3, OverlapCheckpoints: true, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}
