// Command crashtest exhaustively replays a deterministic workload against
// every possible crash point and checks that recovery never loses an
// acknowledged update, never surfaces a half-applied one, and always lands
// exactly on the oracle state of the acknowledged prefix.
//
//	crashtest -seed 1 -ops 50              # full sweep, store and replica modes
//	crashtest -seed 1 -mode store -from 37 -to 37   # replay one reported point
//
// With -net, it runs the partition sweep instead: the workload commits
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
// -history-cap bounds every replica's anti-entropy history. Below -window
// it forces snapshot-install repair at every partition point; below -ops it
// puts the history's sliding window under every crash point.
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
	"smalldb/internal/netsim"
)

func main() {
	var (
		seed      = flag.Int64("seed", 1, "workload seed; (seed, point) replays any failure")
		ops       = flag.Int("ops", 50, "number of updates in the workload")
		cpEvery   = flag.Int("cp-every", 0, "checkpoint after every k updates (0 = ops/4+1, negative = never)")
		mode      = flag.String("mode", "store,replica", "comma-separated modes: store, replica")
		from      = flag.Int64("from", 0, "first point to replay")
		to        = flag.Int64("to", -1, "last point to replay (<= 0 = through the final op)")
		stride    = flag.Int64("stride", 1, "replay every stride-th point")
		shards    = flag.Int("shards", runtime.GOMAXPROCS(0), "points replayed in parallel")
		overlap   = flag.Bool("overlap", false, "commit updates inside each checkpoint's mirror window (sweeps the non-blocking checkpoint protocol)")
		nosync    = flag.Bool("nosync", false, "run without log syncs (store mode must then report violations; replica mode must still recover via its peer)")
		readers   = flag.Int("readers", 0, "concurrent snapshot readers validating lock-free enquiries against the oracle during every workload and catch-up")
		logShards = flag.Int("log-shards", 0, "split the redo log into this many parallel streams (0/1 = single stream); seals sync serially so the sweep stays deterministic")
		batch     = flag.Int("batch", 0, "group every k workload updates into one ApplyBatch — one epoch spanning several streams (0/1 = one update at a time)")
		deltaCh   = flag.Int("delta-chain", 0, "compact the delta chain after this many deltas (0 = store default); small values put compactions inside the sweep")
		histCap   = flag.Int("history-cap", 0, "bound every replica's anti-entropy history (0 = 4096 in replica mode, 10000 with -net); below -ops it puts the history trim and snapshot-install repair inside the sweep")
		verbose   = flag.Bool("v", false, "log progress")

		net      = flag.Bool("net", false, "run the partition sweep instead of the crash-point sweep")
		netCrash = flag.Bool("net-crash", false, "with -net: also power-fail the point's rotating victim (point mod nodes; 0 is the primary) at the heal point")
		window   = flag.Int("window", 5, "with -net: updates committed during each partition")
		nodes    = flag.Int("nodes", 2, "with -net: replica group size N; each point cuts a seeded N-W non-primary members")
		quorum   = flag.Int("quorum", 0, "with -net: write quorum W (0 = half of N rounded up: 1 for a pair, the majority for odd N)")
		drop     = flag.Float64("drop", defaultDrop, "with -net: per-message drop probability")
		jitter   = flag.Duration("jitter", defaultJitter, "with -net: max added delivery delay")
	)
	flag.Parse()

	if *net {
		os.Exit(runNet(*seed, *ops, *window, *nodes, *quorum, *histCap, int(*from), int(*to), int(*stride), *shards, *netCrash, *drop, *jitter, *verbose))
	}

	violations := 0
	for _, m := range strings.Split(*mode, ",") {
		cfg := crashtest.Config{
			Seed:               *seed,
			Ops:                *ops,
			CheckpointEvery:    *cpEvery,
			Mode:               strings.TrimSpace(m),
			From:               *from,
			To:                 *to,
			Stride:             *stride,
			Shards:             *shards,
			OverlapCheckpoints: *overlap,
			UnsafeNoSync:       *nosync,
			Readers:            *readers,
			LogShards:          *logShards,
			Batch:              *batch,
			MaxDeltaChain:      *deltaCh,
			HistoryCap:         *histCap,
		}
		if *verbose {
			cfg.Logf = log.Printf
		}
		res, err := crashtest.Run(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "crashtest:", err)
			os.Exit(2)
		}
		fmt.Printf("mode=%-7s seed=%d ops=%d fs-ops=%d crash-points=%d violations=%d\n",
			res.Mode, res.Seed, res.Ops, res.TotalFSOps, res.Points, len(res.Violations))
		extra := ""
		if *nosync {
			extra = " -nosync"
		}
		if *overlap {
			extra += " -overlap"
		}
		if *cpEvery != 0 {
			extra += fmt.Sprintf(" -cp-every %d", *cpEvery)
		}
		if *readers != 0 {
			extra += fmt.Sprintf(" -readers %d", *readers)
		}
		if *logShards > 1 {
			extra += fmt.Sprintf(" -log-shards %d", *logShards)
		}
		if *batch > 1 {
			extra += fmt.Sprintf(" -batch %d", *batch)
		}
		if *deltaCh > 0 {
			extra += fmt.Sprintf(" -delta-chain %d", *deltaCh)
		}
		if *histCap > 0 {
			extra += fmt.Sprintf(" -history-cap %d", *histCap)
		}
		for _, v := range res.Violations {
			fmt.Printf("VIOLATION %s\n", v)
			fmt.Printf("  replay: go run ./cmd/crashtest -seed %d -ops %d -mode %s -from %d -to %d%s\n",
				res.Seed, res.Ops, res.Mode, v.Point, v.Point, extra)
		}
		violations += len(res.Violations)
	}
	if violations > 0 {
		os.Exit(1)
	}
}

// The default network weather; a replay line names -drop and -jitter only
// when a run departs from it.
const (
	defaultDrop   = 0.05
	defaultJitter = 200 * time.Microsecond
)

// netReplayLine is the command line that replays one partition point: every
// flag that fixes the workload, the group or the netsim schedule.
func netReplayLine(res *crashtest.NetResult, point int64, nodes, quorum, histCap int, crash bool, drop float64, jitter time.Duration) string {
	line := fmt.Sprintf("go run ./cmd/crashtest -net -seed %d -ops %d -window %d -from %d -to %d", res.Seed, res.Ops, res.Window, point, point)
	if crash {
		line += " -net-crash"
	}
	if nodes > 2 {
		line += fmt.Sprintf(" -nodes %d", nodes)
	}
	if quorum > 0 {
		line += fmt.Sprintf(" -quorum %d", quorum)
	}
	if histCap > 0 {
		line += fmt.Sprintf(" -history-cap %d", histCap)
	}
	if drop != defaultDrop {
		line += fmt.Sprintf(" -drop %g", drop)
	}
	if jitter != defaultJitter {
		line += fmt.Sprintf(" -jitter %s", jitter)
	}
	return line
}

func runNet(seed int64, ops, window, nodes, quorum, histCap, from, to, stride, shards int, crash bool, drop float64, jitter time.Duration, verbose bool) int {
	cfg := crashtest.NetConfig{
		Seed:   seed,
		Ops:    ops,
		Window: window,
		From:   from,
		To:     to,
		Stride: stride,
		Shards: shards,
		Crash:  crash,
		Nodes:  nodes,
		Quorum: quorum,
		Profile: netsim.Profile{
			DropProb:     drop,
			DelayProb:    0.2,
			MaxDelay:     jitter,
			DialFailProb: drop,
		},
		HistoryCap: histCap,
	}
	if verbose {
		cfg.Logf = log.Printf
	}
	res, err := crashtest.RunNet(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "crashtest:", err)
		return 2
	}
	if nodes < 2 {
		nodes = 2
	}
	fmt.Printf("mode=net     seed=%d ops=%d window=%d nodes=%d crash=%v partition-points=%d violations=%d\n",
		res.Seed, res.Ops, res.Window, nodes, crash, res.Points, len(res.Violations))
	for _, v := range res.Violations {
		fmt.Printf("VIOLATION %s\n", v)
		fmt.Printf("  replay: %s\n", netReplayLine(res, v.Point, nodes, quorum, histCap, crash, drop, jitter))
	}
	if len(res.Violations) > 0 {
		return 1
	}
	return 0
}
