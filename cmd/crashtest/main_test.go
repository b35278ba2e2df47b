package main

import (
	"testing"
	"time"

	"smalldb/internal/crashtest"
)

// TestNetReplayLine pins the replay line: -drop and -jitter fix the netsim
// schedule, so a violation found under non-default weather must name them,
// and one found under the defaults must not grow.
func TestNetReplayLine(t *testing.T) {
	res := &crashtest.NetResult{Seed: 7, Ops: 30, Window: 4}
	for _, tc := range []struct {
		nodes, quorum, histCap int
		crash                  bool
		drop                   float64
		jitter                 time.Duration
		want                   string
	}{
		{2, 0, 0, false, defaultDrop, defaultJitter,
			"go run ./cmd/crashtest -net -seed 7 -ops 30 -window 4 -from 12 -to 12"},
		{5, 3, 6, true, 0.2, time.Millisecond,
			"go run ./cmd/crashtest -net -seed 7 -ops 30 -window 4 -from 12 -to 12 -net-crash -nodes 5 -quorum 3 -history-cap 6 -drop 0.2 -jitter 1ms"},
		{2, 2, 0, false, defaultDrop, 0,
			"go run ./cmd/crashtest -net -seed 7 -ops 30 -window 4 -from 12 -to 12 -quorum 2 -jitter 0s"},
	} {
		if got := netReplayLine(res, 12, tc.nodes, tc.quorum, tc.histCap, tc.crash, tc.drop, tc.jitter); got != tc.want {
			t.Errorf("replay line\n got  %s\n want %s", got, tc.want)
		}
	}
}
