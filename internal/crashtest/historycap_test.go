package crashtest

import "testing"

// TestSmallHistoryCapSweeps puts log trims inside every kind of sweep: a
// catch-up is read from the sender's logs, and checkpoints fall closer
// together than a sweep's op count. Each run also asserts that the path it
// exists for was actually taken, so a retuned default cannot leave it
// passing vacuously. (The name is from when a small cap on a history window
// in the replica root forced these paths.)
func TestSmallHistoryCapSweeps(t *testing.T) {
	// Checkpoints fall every two updates, so crash points land inside
	// delta chains. Only some recover through one: the store writes a full
	// image whenever a delta would rival the base, which on a tree this
	// small is most of the time — hence 40 ops, and an assertion that only
	// asks for some.
	t.Run("replica-delta", func(t *testing.T) {
		res, err := Run(Config{Seed: 3, Ops: 40, Mode: ModeReplica, CheckpointEvery: 2, Stride: 3, Logf: t.Logf})
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
	// checkpoint. Its peer checkpoints just before it does, so a crash
	// inside that checkpoint loses more than the peer's log still holds,
	// and the catch-up is a pulled snapshot install.
	t.Run("replica-nosync", func(t *testing.T) {
		res, err := Run(Config{Seed: 4, Ops: 24, Mode: ModeReplica, CheckpointEvery: 8, UnsafeNoSync: true, Stride: 3, Logf: t.Logf})
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
	// A checkpoint falls inside every partition window and retires the log
	// holding its start, so the cut-off side can only be repaired by a
	// snapshot — a Pull answered with the peer's root in the pair, a root
	// pushed by the group primary — composed with a power failure at the
	// heal point.
	for _, nodes := range []int{2, 3} {
		name := "net-pair"
		if nodes > 2 {
			name = "net-group"
		}
		t.Run(name, func(t *testing.T) {
			res, err := Run(Config{Mode: ModeNet, Seed: 5, Ops: 20, Window: 6, CheckpointEvery: 4, Stride: 3, Nodes: nodes, Crash: true, Profile: hostileProfile, Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if res.Points == 0 {
				t.Fatal("sweep replayed no points")
			}
			if res.FullRestores < uint64(res.Points) {
				t.Errorf("%d snapshot installs over %d partition points: the logs still served some repairs", res.FullRestores, res.Points)
			}
			for _, v := range res.Violations {
				t.Errorf("%s", v)
			}
		})
	}
}
