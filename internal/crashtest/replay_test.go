package crashtest

import (
	"math/rand"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/vfs"
)

// TestPipelinedReplayDifferential is the correctness proof for restart's
// one replay path: recover a 10k-entry log and require the applied sequence
// number and the tree fingerprint of the in-memory oracle that generated it.
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

	srv, err = nameserver.Open(nameserver.Config{FS: fs})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer srv.Close()
	if seq := srv.Store().AppliedSeq(); seq != entries {
		t.Errorf("recovered %d updates, want %d", seq, entries)
	}
	if got, err := fingerprint(srv.Store(), storeTree); err != nil || got != want {
		t.Errorf("recovered state diverges from the oracle (%v)", err)
	}
}

// TestStoreTorturePipelined sweeps every crash point of a store-mode
// workload that never checkpoints, so every recovery rebuilds the database
// by replaying the whole log from the initial version.
func TestStoreTorturePipelined(t *testing.T) {
	res, err := Run(Config{Seed: 4, Ops: 12, Mode: ModeStore, CheckpointEvery: -1, Logf: t.Logf})
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

// TestReplicaTorturePipelined is the replica-mode counterpart: whole-log
// replay of entries that carry replication stamps, then anti-entropy
// catch-up after each recovery.
func TestReplicaTorturePipelined(t *testing.T) {
	res, err := Run(Config{Seed: 5, Ops: 8, Mode: ModeReplica, CheckpointEvery: -1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}
