package main

import (
	"strings"
	"testing"

	"smalldb/internal/crashtest"
)

// TestReplayLine pins the replay line for both fault kinds: it names every
// flag the run was given that shapes a point — -drop and -jitter fix the
// netsim schedule, so a violation found under non-default weather must name
// them — and none it was not, so one found under the defaults does not
// grow.
func TestReplayLine(t *testing.T) {
	for _, tc := range []struct {
		args, mode, want string
	}{
		{"-net -seed 7 -ops 30 -window 4", crashtest.ModeNet,
			"go run ./cmd/crashtest -net -seed 7 -ops 30 -window 4 -from 12 -to 12"},
		{"-net -seed 7 -ops 30 -window 4 -jitter 1ms -drop 0.2 -history-cap 6 -quorum 3 -nodes 5 -net-crash -v -stride 2", crashtest.ModeNet,
			"go run ./cmd/crashtest -net -seed 7 -ops 30 -window 4 -from 12 -to 12 -net-crash -nodes 5 -quorum 3 -history-cap 6 -drop 0.2 -jitter 1ms"},
		{"-net -seed 7 -ops 30 -window 4 -quorum 2 -jitter 0", crashtest.ModeNet,
			"go run ./cmd/crashtest -net -seed 7 -ops 30 -window 4 -from 12 -to 12 -quorum 2 -jitter 0s"},
		{"-seed 3 -ops 18 -batch 3 -overlap -shards 1", crashtest.ModeStore,
			"go run ./cmd/crashtest -seed 3 -ops 18 -mode store -from 12 -to 12 -overlap -batch 3"},
		{"-seed 1 -mode store -nosync -from 3 -to 90", crashtest.ModeStore,
			"go run ./cmd/crashtest -seed 1 -ops 50 -mode store -from 12 -to 12 -nosync"},
		{"-seed 2 -ops 24 -cp-every 2 -delta-chain 1 -history-cap 4 -readers 2 -nosync=false", crashtest.ModeReplica,
			"go run ./cmd/crashtest -seed 2 -ops 24 -mode replica -from 12 -to 12 -cp-every 2 -readers 2 -delta-chain 1 -history-cap 4"},
	} {
		fs, _, _ := parseFlags(strings.Fields(tc.args))
		if got := replayLine(fs, tc.mode, 12); got != tc.want {
			t.Errorf("crashtest %s\n got  %s\n want %s", tc.args, got, tc.want)
		}
	}
}

// TestParseFlags: the command line spells one Config; -net is the spelling
// of the partition fault and overrides -mode.
func TestParseFlags(t *testing.T) {
	_, cfg, modes := parseFlags(strings.Fields("-seed 9 -ops 12 -net-crash -nodes 3 -drop 0.1 -batch 2"))
	if strings.Join(modes, "+") != "store+replica" {
		t.Errorf("default modes = %v", modes)
	}
	if cfg.Seed != 9 || cfg.Ops != 12 || !cfg.Crash || cfg.Nodes != 3 || cfg.Batch != 2 || cfg.Window != 5 ||
		cfg.Profile.DropProb != 0.1 || cfg.Profile.DialFailProb != 0.1 || cfg.Profile.DelayProb != 0.2 {
		t.Errorf("config = %+v", cfg)
	}
	if _, _, modes = parseFlags(strings.Fields("-net -mode store")); len(modes) != 1 || modes[0] != crashtest.ModeNet {
		t.Errorf("-net modes = %v", modes)
	}
}
