// Command nsbench is the repository's end-to-end benchmark: it starts the
// shipped nsd as a separate process (three of them for quorum3), drives it
// over loopback TCP through the repo's own rpc.Client, checks every reply
// against a seeded model, and prints every metric by name with its unit.
//
//	bash benchmark/run.sh --workload update --seed 7 --seconds 12 --trace 0
//	bash benchmark/run.sh --selfcheck
//
// See ../../README.md for the metrics, the workloads and why the timing
// metrics are ratios to a calibration echo.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// calibrationVersion names the yardsticks: the echo server's code and wire
// format, plain and durable, and the way clients interleave echo calls with
// nsd calls. _rel metrics are comparable only between runs at the same
// version.
const calibrationVersion = 1

// metricDef is one line of BENCHMARK.json.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd is what a user of the name server sees. Every workload reports
// every one; bounds are the worsening of the median that counts as a
// regression (README.md, "Bounds", says where each came from).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"read_rel", "ratio", "lower", 0.25},
	{"write_rel", "ratio", "lower", 0.25},
	{"cpu_rel", "ratio", "lower", 0.25},
	{"rss_mb", "MB", "lower", 0.15},
	{"space_amp", "ratio", "lower", 0.15},
	{"log_bytes_per_update", "B", "lower", 0.01},
	{"syncs_per_update", "ratio", "lower", 0.02},
}

// workload is one traffic mix against one deployment.
type workload struct {
	name, why    string
	depts, hosts int
	mix          mix
	opsPerSecond int // steady-phase ops per second of --seconds, all clients together
	nodes        int // nsd processes; >1 runs a quorum group
	// checkpoints is how many checkpoint intervals the nominal steady phase
	// spans; 0 leaves nsd at its nightly default so none happens.
	checkpoints int
}

var workloads = []workload{
	{
		name: "lookup", depts: 200, hosts: 500, mix: mix{set: 20}, opsPerSecond: 7000, nodes: 1,
		why: "98% Lookup on 100k names: rpc, pickle and the lock-free view do the work; the control on which a write-path change must show no move (2% Sets keep every metric defined)",
	},
	{
		name: "update", depts: 200, hosts: 500, mix: mix{set: 800}, opsPerSecond: 1800, nodes: 1,
		why: "80% Set with no checkpoint, so the log only grows: wal, pickle and apply/publish do the work and restart is replay; where logging and commit-pipeline work will claim",
	},
	{
		name: "mixed", depts: 200, hosts: 500, mix: mix{list: 20, set: 100}, opsPerSecond: 4200, nodes: 1, checkpoints: 13,
		why: "88% Lookup, 2% List of 500 labels, 10% Set beside a checkpointer firing ~12 times: readers, writers and checkpoints share the store, so a gain that costs readers shows",
	},
	{
		name: "quorum3", depts: 20, hosts: 500, mix: mix{set: 550}, opsPerSecond: 600, nodes: 3,
		why: "55% Set through a primary committing at W=2 of 3 nsd processes: replica push fan-out, quorum wait and three RPC hops dominate, and are absent everywhere else",
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// result is everything one run reports.
type result struct {
	correct           bool
	attempted, failed int64
	metrics           map[string]float64
	notes             []string
}

func (r *result) set(name string, v float64) { r.metrics[name] = v }

// options are the command line.
type options struct {
	home     string // the benchmark directory: .build/ and out/ live in it
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

func main() {
	var o options
	var trace int
	var selfcheck, nullServer bool
	var passes int
	flag.StringVar(&o.home, "home", "benchmark", "the benchmark's directory (binaries in .build/, data and traces in out/)")
	flag.StringVar(&o.workload, "workload", "", "lookup, update, mixed or quorum3")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the data set, op streams and values")
	flag.IntVar(&o.seconds, "seconds", 15, "nominal length of the steady phase; op counts scale with it")
	flag.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics and writes out/<workload>.trace.jsonl")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload (or just -workload) -passes times and compare two interleaved sets against the bounds")
	flag.IntVar(&passes, "passes", 10, "passes per workload for -selfcheck (at least 10, even)")
	flag.BoolVar(&nullServer, "null-server", false, "internal: serve the empty RPC handler the traced run calibrates the rpc layer with")
	flag.Parse()
	o.trace = trace != 0
	if nullServer {
		fmt.Fprintln(os.Stderr, "nsbench:", serveNull())
		os.Exit(1)
	}

	// Children must not outlive the benchmark, whatever ends it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		procs.killAll()
		os.Exit(130)
	}()

	code := 0
	if selfcheck {
		code = runSelfcheck(o, passes)
	} else {
		code = runOne(o)
	}
	procs.killAll()
	os.Exit(code)
}

// runOne is the contract's single run: human-readable metrics, then one JSON
// object as the last line of standard output.
func runOne(o options) int {
	wl := findWorkload(o.workload)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "nsbench: unknown -workload %q (want lookup, update, mixed or quorum3)\n", o.workload)
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(os.Stderr, "nsbench: -seconds must be at least 1")
		return 2
	}
	res, err := run(o, wl)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nsbench: %s: %v\n", wl.name, err)
		return 1
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	if err := printResult(os.Stdout, res, defs); err != nil {
		fmt.Fprintf(os.Stderr, "nsbench: %s: %v\n", wl.name, err)
		return 1
	}
	if !res.correct {
		return 1
	}
	return 0
}

// printResult prints each metric on a line of its own, then the JSON object.
// It fails if the run did not produce a metric BENCHMARK.json promises.
func printResult(w *os.File, res *result, defs []metricDef) error {
	for _, n := range res.notes {
		fmt.Fprintln(w, n)
	}
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := res.metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		fmt.Fprintf(w, "%-36s %14.6g %s\n", d.name, v, d.unit)
		out.Metrics[d.name] = jsonMetric{v, d.unit}
	}
	fmt.Fprintf(w, "ops_attempted %d\nops_failed %d\n", res.attempted, res.failed)
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// envNotes is the fingerprint printed with every run: the things a number
// from this benchmark is only comparable under.
func envNotes(o options, wl *workload, clients int, fs string, stealPct float64) []string {
	return []string{
		fmt.Sprintf("# nsbench workload=%s seed=%d seconds=%d trace=%v calibration_version=%d", wl.name, o.seed, o.seconds, o.trace, calibrationVersion),
		fmt.Sprintf("# env nproc=%d gomaxprocs=%d (nsd: default) go=%s clients=%d fs_kind=%s steal_pct=%.2f",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), clients, fs, stealPct),
	}
}

// fsKind names the file system under dir from /proc/mounts: the longest
// mount point that is a prefix of the path.
func fsKind(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	return fsKindFrom(string(b), abs)
}

func fsKindFrom(mounts, abs string) string {
	best, kind := -1, "unknown"
	for _, line := range strings.Split(mounts, "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > best {
				best, kind = len(mp), f[2]
			}
		}
	}
	return kind
}

// clientCount is the closed loop's width: name-server clients are RPC stubs
// that each wait for their reply, and min(nproc, 4) of them keep a small
// host's cores busy without queueing behind each other.
func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func since(t time.Time) float64 { return time.Since(t).Seconds() }
