package crashtest

import "testing"

// TestSmallHistoryCapSweeps puts the history trim inside every kind of
// sweep: each run's cap is below its op count, so the window slides at
// every later crash and partition point. Each run also asserts that the
// path it exists for was actually taken, so a retuned default cannot leave
// it passing vacuously.
func TestSmallHistoryCapSweeps(t *testing.T) {
	// Checkpoints fall closer together than the cap, so every delta
	// checkpoint after the first trim carries a partial HistoryDropped
	// count. Only some crash points recover through one: the store writes
	// a full image whenever a delta would rival the base, which on a tree
	// this small is most of the time — hence 40 ops under a cap of 4, and
	// an assertion that only asks for some.
	t.Run("replica-delta", func(t *testing.T) {
		res, err := Run(Config{Seed: 3, Ops: 40, Mode: ModeReplica, HistoryCap: 4, CheckpointEvery: 2, Stride: 3, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if res.DeltaRecoveries == 0 {
			t.Errorf("none of %d crash points recovered through a delta chain", res.Points)
		}
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
	})
	// Without log syncs the crashed node loses everything since its last
	// checkpoint — more than the peer's history still holds — so its
	// catch-up is a pulled snapshot install.
	t.Run("replica-nosync", func(t *testing.T) {
		res, err := Run(Config{Seed: 4, Ops: 24, Mode: ModeReplica, HistoryCap: 3, CheckpointEvery: 8, UnsafeNoSync: true, Stride: 3, Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		if res.FullRestores == 0 {
			t.Error("no catch-up needed a snapshot install")
		}
		for _, v := range res.Violations {
			t.Errorf("%s", v)
		}
	})
	// The partition window outlasts the cap, so the cut-off side can only
	// be repaired by a snapshot — Pull → NeedFull → Snapshot in the pair,
	// needFull → Install pushed by the group primary — composed with a
	// power failure at the heal point.
	for _, nodes := range []int{2, 3} {
		name := "net-pair"
		if nodes > 2 {
			name = "net-group"
		}
		t.Run(name, func(t *testing.T) {
			res, err := Run(Config{Mode: ModeNet, Seed: 5, Ops: 20, Window: 6, HistoryCap: 4, Stride: 3, Nodes: nodes, Crash: true, Profile: hostileProfile, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if res.Points == 0 {
				t.Fatal("sweep replayed no points")
			}
			if res.FullRestores < uint64(res.Points) {
				t.Errorf("%d snapshot installs over %d partition points: the trimmed history still served some repairs", res.FullRestores, res.Points)
			}
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}
