package crashtest

import (
	"testing"
	"time"

	"smalldb/internal/netsim"
)

// hostileProfile is the weather the bounded sweeps run under: enough loss
// and jitter that retries genuinely fire, mild enough that the bounded
// slice stays fast.
var hostileProfile = netsim.Profile{
	DropProb:     0.05,
	DelayProb:    0.2,
	MaxDelay:     200 * time.Microsecond,
	DialFailProb: 0.1,
}

// TestNetSweepBoundedSlice runs a bounded slice of the partition sweep —
// the full sweep lives behind cmd/crashtest -net.
func TestNetSweepBoundedSlice(t *testing.T) {
	res, err := Run(Config{
		Mode:    ModeNet,
		Seed:    1,
		Ops:     24,
		Window:  4,
		From:    0,
		To:      8,
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

// TestNetSweepWithCrash composes the partition with a power failure of the
// acking node at the heal point: updates acked during the partition must
// survive both.
func TestNetSweepWithCrash(t *testing.T) {
	res, err := Run(Config{
		Mode:    ModeNet,
		Seed:    2,
		Ops:     20,
		Window:  4,
		From:    0,
		To:      6,
		Stride:  2,
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
