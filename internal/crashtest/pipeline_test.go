package crashtest

import (
	"math/rand"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/vfs"
)

// TestPipelinedReplayDifferential is the correctness proof for pipelined
// restart: recover the same durable image sequentially (ReplayWorkers=1)
// and pipelined (ReplayWorkers=8) and require identical applied sequence
// numbers and identical tree fingerprints — which must also match the
// in-memory oracle that generated the 10k-entry log.
func TestPipelinedReplayDifferential(t *testing.T) {
	const entries = 10000
	fs := vfs.NewMem(11)
	srv, err := nameserver.Open(nameserver.Config{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	oracle := nameserver.NewTree()
	for i := 0; i < entries; i++ {
		u := genUpdate(rng, oracle, i)
		if err := u.Apply(oracle); err != nil {
			t.Fatalf("oracle apply %d: %v", i, err)
		}
		if err := srv.Store().Apply(u); err != nil {
			t.Fatalf("store apply %d: %v", i, err)
		}
	}
	want := fingerprintTree(oracle)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		srv, err := nameserver.Open(nameserver.Config{FS: fs, ReplayWorkers: workers})
		if err != nil {
			t.Fatalf("workers=%d: recovery failed: %v", workers, err)
		}
		if seq := srv.Store().AppliedSeq(); seq != entries {
			t.Errorf("workers=%d: recovered %d updates, want %d", workers, seq, entries)
		}
		got, err := fingerprint(srv.Store(), storeTree)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got != want {
			t.Errorf("workers=%d: recovered state diverges from the oracle", workers)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreTorturePipelined sweeps every crash point of a store-mode
// workload with pipelined replay on the recovery path: out-of-order decode
// must not change what any crash image recovers to.
func TestStoreTorturePipelined(t *testing.T) {
	res, err := Run(Config{Seed: 4, Ops: 12, Mode: ModeStore, ReplayWorkers: 4, Logf: t.Logf})
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

// TestReplicaTorturePipelined is the replica-mode counterpart, covering
// pipelined replay of logs that carry replication stamps and anti-entropy
// catch-up after each pipelined recovery.
func TestReplicaTorturePipelined(t *testing.T) {
	res, err := Run(Config{Seed: 5, Ops: 8, Mode: ModeReplica, ReplayWorkers: 4, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}
