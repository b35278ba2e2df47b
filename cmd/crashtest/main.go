// Command crashtest exhaustively replays a deterministic workload into
// every possible fault point and checks that recovery never loses an
// acknowledged update, never surfaces a half-applied one, and always lands
// exactly on the oracle state of the acknowledged prefix. It is one driver
// (crashtest.Run) with two kinds of fault.
//
// The crash sweep power-fails the tortured node before every file-system
// operation of the workload: a bare store (-mode store), or the member
// taking the writes of a two-node replica group at W = 2 (-mode replica).
//
//	crashtest -seed 1 -ops 50              # full sweep, store and replica modes
//	crashtest -seed 1 -mode store -from 37 -to 37   # replay one reported point
//
// With -net, the fault is a partition instead: the workload commits
// through the primary of an N-node replica group (-nodes, default 2) at
// write quorum W (-quorum, default ⌈N/2⌉: 1 for the pair, the majority for
// odd N). At every update index a seeded N − W non-primary members are cut
// away — for the pair, its only peer — the window must still be
// acknowledged, -net-crash power-fails the point's rotating victim (point
// mod N; 0 is the primary) at the heal point, the partition heals, and
// every member must converge on the acked-prefix oracle with no
// acknowledged update lost — all under a lossy, jittery network profile
// (-drop, -jitter).
//
//	crashtest -net -seed 1 -ops 50                  # full partition sweep of a pair
//	crashtest -net -net-crash -from 12 -to 12       # replay one point, with crash
//	crashtest -net -nodes 5 -quorum 3 -net-crash -seed 1 -ops 40
//
// Every workload flag (-cp-every, -overlap, -batch, -readers, ...)
// shapes the workload under either fault. A catch-up is read from the
// sender's logs, so -cp-every below -window, whose checkpoint retires the
// log holding the start of every partition window, forces snapshot-install
// repair at every partition point.
//
// A violation prints as a replayable (seed, point) pair; the exit status is
// 1 when any invariant broke, 2 on a setup error.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"smalldb/internal/crashtest"
)

func main() {
	fs, cfg, modes := parseFlags(os.Args[1:])
	violations := 0
	for _, m := range modes {
		cfg.Mode = strings.TrimSpace(m)
		res, err := crashtest.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashtest:", err)
			os.Exit(2)
		}
		if res.Mode == crashtest.ModeNet {
			fmt.Printf("mode=net     seed=%d ops=%d window=%d nodes=%d crash=%v partition-points=%d violations=%d\n",
				res.Seed, res.Ops, cfg.Window, max(cfg.Nodes, 2), cfg.Crash, res.Points, len(res.Violations))
		} else {
			fmt.Printf("mode=%-7s seed=%d ops=%d fs-ops=%d crash-points=%d violations=%d\n",
				res.Mode, res.Seed, res.Ops, res.TotalFSOps, res.Points, len(res.Violations))
		}
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION %s\n", v)
			fmt.Printf("  replay: %s\n", replayLine(fs, res.Mode, v.Point))
		}
		violations += len(res.Violations)
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// parseFlags reads the command line into the one Config every sweep runs
// from, and the modes to run it in.
func parseFlags(args []string) (fs *flag.FlagSet, cfg crashtest.Config, modes []string) {
	fs = flag.NewFlagSet("crashtest", flag.ExitOnError)
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed; (seed, point) replays any failure")
	fs.IntVar(&cfg.Ops, "ops", 50, "number of updates in the workload")
	fs.IntVar(&cfg.CheckpointEvery, "cp-every", 0, "checkpoint after every k updates (0 = ops/4+1, negative = never)")
	mode := fs.String("mode", "store,replica", "comma-separated crash-sweep modes: store, replica")
	fs.Int64Var(&cfg.From, "from", 0, "first point to replay")
	fs.Int64Var(&cfg.To, "to", -1, "last point to replay (<= 0 = through the final one)")
	fs.Int64Var(&cfg.Stride, "stride", 1, "replay every stride-th point")
	fs.IntVar(&cfg.Shards, "shards", runtime.GOMAXPROCS(0), "points replayed in parallel")
	fs.BoolVar(&cfg.OverlapCheckpoints, "overlap", false, "commit updates at each stage of every checkpoint, between its start and its flip and after it (sweeps the checkpoint's tail and flip)")
	fs.BoolVar(&cfg.UnsafeNoSync, "nosync", false, "run the tortured node without log syncs (a store, or a group at W = 1, must then report violations; at W > 1 it must still recover via the other members)")
	fs.IntVar(&cfg.Readers, "readers", 0, "concurrent snapshot readers validating lock-free enquiries against the oracle during every workload and catch-up")
	fs.IntVar(&cfg.Batch, "batch", 0, "group every k workload updates into one ApplyBatch — one log sync covering k entries (0/1 = one update at a time)")
	fs.IntVar(&cfg.MaxDeltaChain, "delta-chain", 0, "write a full image once the chain holds this many deltas (0 = store default); small values put re-bases inside the sweep")
	verbose := fs.Bool("v", false, "log progress")

	net := fs.Bool("net", false, "run the partition sweep instead of the crash-point sweep")
	fs.BoolVar(&cfg.Crash, "net-crash", false, "with -net: also power-fail the point's rotating victim (point mod nodes; 0 is the primary) at the heal point")
	fs.IntVar(&cfg.Window, "window", 5, "with -net: updates committed during each partition")
	fs.IntVar(&cfg.Nodes, "nodes", 2, "with -net: replica group size N; each point cuts a seeded N-W non-primary members")
	fs.IntVar(&cfg.Quorum, "quorum", 0, "with -net: write quorum W (0 = half of N rounded up: 1 for a pair, the majority for odd N)")
	fs.Float64Var(&cfg.Profile.DropProb, "drop", 0.05, "with -net: per-message drop probability")
	fs.DurationVar(&cfg.Profile.MaxDelay, "jitter", 200*time.Microsecond, "with -net: max added delivery delay")
	fs.Parse(args)

	cfg.Profile.DelayProb, cfg.Profile.DialFailProb = 0.2, cfg.Profile.DropProb
	if *verbose {
		cfg.Logf = log.Printf
	}
	if *net {
		return fs, cfg, []string{crashtest.ModeNet}
	}
	return fs, cfg, strings.Split(*mode, ",")
}

// replayFlags are the flags beyond the fixed head of a replay line that
// shape a point — the workload, the group or the netsim schedule — in the
// order the line names them.
var replayFlags = []string{"nosync", "overlap", "cp-every", "readers", "batch", "delta-chain",
	"net-crash", "nodes", "quorum", "drop", "jitter"}

// replayLine is the command line that replays one point of a sweep in mode:
// the seed, the size and the point, then every flag of replayFlags the run
// itself was given — so a violation found under non-default weather names
// its -drop and -jitter, and one found under the defaults does not grow.
func replayLine(fs *flag.FlagSet, mode string, point int64) string {
	value := func(name string) string { return fs.Lookup(name).Value.String() }
	line := "go run ./cmd/crashtest"
	if mode == crashtest.ModeNet {
		line += fmt.Sprintf(" -net -seed %s -ops %s -window %s", value("seed"), value("ops"), value("window"))
	} else {
		line += fmt.Sprintf(" -seed %s -ops %s -mode %s", value("seed"), value("ops"), mode)
	}
	line += fmt.Sprintf(" -from %d -to %d", point, point)
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range replayFlags {
		if !set[name] {
			continue
		}
		if b, ok := fs.Lookup(name).Value.(interface{ IsBoolFlag() bool }); !ok || !b.IsBoolFlag() {
			line += fmt.Sprintf(" -%s %s", name, value(name))
		} else if value(name) == "true" {
			line += " -" + name
		}
	}
	return line
}
