package crashtest

import (
	"testing"
)

// TestGroupSweepBoundedSlice runs a bounded slice of the N-node group
// sweep: 3 nodes, majority quorum, a seeded minority partition per point.
func TestGroupSweepBoundedSlice(t *testing.T) {
	res, err := Run(Config{
		Mode:    ModeNet,
		Seed:    1,
		Ops:     16,
		Window:  3,
		From:    0,
		To:      6,
		Stride:  2,
		Nodes:   3,
		Profile: hostileProfile,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points == 0 {
		t.Fatal("sweep replayed no points")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestGroupSweepFiveNodesWithCrash composes the 5-node minority partition
// with a rotating member power failure — including the primary at point 0
// — at W=3.
func TestGroupSweepFiveNodesWithCrash(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded but heavy; covered in full by cmd/crashtest -nodes 5")
	}
	res, err := Run(Config{
		Mode:    ModeNet,
		Seed:    2,
		Ops:     14,
		Window:  3,
		From:    0,
		To:      6,
		Stride:  3,
		Nodes:   5,
		Quorum:  3,
		Crash:   true,
		Profile: hostileProfile,
		Logf:    t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Points == 0 {
		t.Fatal("sweep replayed no points")
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
}

// TestGroupSweepSuperMajorityQuorum: a quorum above the majority is a
// valid operating point that trades partition tolerance away, so its points
// cut only the N − W members it can still ack without; a quorum above N is
// a config error.
func TestGroupSweepSuperMajorityQuorum(t *testing.T) {
	res, err := Run(Config{Mode: ModeNet, Seed: 1, Ops: 8, Window: 2, To: 2, Nodes: 4, Quorum: 3, Profile: hostileProfile, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("%s", v)
	}
	if _, err := Run(Config{Mode: ModeNet, Seed: 1, Ops: 8, Window: 2, Nodes: 3, Quorum: 9}); err == nil {
		t.Fatal("W>N accepted")
	}
}
