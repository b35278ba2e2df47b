// Command smalldb-bench regenerates every measurement reported in the
// paper's evaluation (§5 performance, §6 implementation size), printing
// paper-vs-measured tables.
//
// Usage:
//
//	smalldb-bench                 # run every experiment
//	smalldb-bench -run e2,e4,e9   # run a subset
//	smalldb-bench -quick          # small iteration counts (seconds, not minutes)
//	smalldb-bench -list           # list experiment ids
//	smalldb-bench -json out.json  # also run the metrics workload and dump
//	                              # per-phase percentile latencies as JSON
//
// The -json snapshot is the bench-trajectory record: an instrumented store
// runs a fixed update/enquiry workload and the resulting obs metrics —
// op counts plus p50/p90/p99/max for the paper's verify/pickle/commit/apply
// phases — are written to the named file, so successive runs can be
// compared by a tool rather than by eyeballing means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/bench"
	"smalldb/internal/disk"
	"smalldb/internal/nameserver"
	"smalldb/internal/netsim"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

func main() {
	var (
		run      = flag.String("run", "", "comma-separated experiment ids (default: all)")
		quick    = flag.Bool("quick", false, "shrink iteration counts")
		entries  = flag.Int("entries", 0, "database entries (default ≈1 MB worth)")
		seed     = flag.Int64("seed", 1987, "random seed")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonOut  = flag.String("json", "", "write the metrics workload's snapshot to this file")
		jsonOps  = flag.Int("json-ops", 0, "updates in the metrics workload (default 2000, 200 with -quick)")
		jsonOnly = flag.Bool("json-only", false, "run only the metrics workload, skipping the experiments")
	)
	flag.Parse()

	if *list {
		for _, ex := range bench.All() {
			fmt.Printf("  %-4s %s\n", ex.ID, ex.Title)
		}
		return
	}

	if !*jsonOnly {
		env := bench.Env{Out: os.Stdout, Quick: *quick, DBEntries: *entries, Seed: *seed}
		var ids []string
		if *run != "" {
			for _, id := range strings.Split(*run, ",") {
				ids = append(ids, strings.TrimSpace(id))
			}
		}
		prof := disk.MicroVAX
		fmt.Println("smalldb experiment harness — reproducing Birrell/Jones/Wobber, SOSP 1987")
		fmt.Printf("disk model: %s (%v/write op, %dKB/s streaming, CPU ×%.0f)\n",
			prof.Name, prof.PerOpWrite, prof.WriteBytesPerSec>>10, prof.CPUSlowdown)
		if err := bench.Run(env, ids...); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
	}

	if *jsonOut != "" {
		ops := *jsonOps
		if ops == 0 {
			ops = 2000
			if *quick {
				ops = 200
			}
		}
		if err := writeMetricsJSON(*jsonOut, ops, *seed, *quick); err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
			os.Exit(1)
		}
		fmt.Printf("\nmetrics snapshot (%d updates) written to %s\n", ops, *jsonOut)
	}
}

// phaseJSON is one phase's latency summary in the -json snapshot.
type phaseJSON struct {
	Count  uint64 `json:"count"`
	MeanNS int64  `json:"mean_ns"`
	P50NS  int64  `json:"p50_ns"`
	P90NS  int64  `json:"p90_ns"`
	P99NS  int64  `json:"p99_ns"`
	MaxNS  int64  `json:"max_ns"`
}

func phase(s obs.Snapshot) phaseJSON {
	return phaseJSON{Count: s.Count, MeanNS: s.Mean, P50NS: s.P50, P90NS: s.P90, P99NS: s.P99, MaxNS: s.Max}
}

// microJSON is one micro-benchmark's result in the -json snapshot.
type microJSON struct {
	NSPerOp     int64 `json:"ns_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
}

func micro(r testing.BenchmarkResult) microJSON {
	return microJSON{NSPerOp: r.NsPerOp(), BytesPerOp: r.AllocedBytesPerOp(), AllocsPerOp: r.AllocsPerOp()}
}

// benchUpdate mirrors the shape of a committed update record: a small
// struct carried behind an interface, the exact thing the store pickles on
// every commit and unpickles on every replayed log entry.
type benchUpdate struct {
	Path  []string
	Value string
}

type benchRecord struct {
	U any
}

func init() {
	pickle.RegisterName("smalldb-bench.update", &benchUpdate{})
}

// microBenches measures the hot-path primitives directly — pickle
// marshal/unmarshal of an update record, a checkpoint-style map encode,
// and a log append — so the snapshot records codec and log costs
// independently of the workload mix.
func microBenches() (map[string]microJSON, error) {
	rec := &benchRecord{U: &benchUpdate{Path: []string{"zone3", "host17", "attr1234"}, Value: "value-1234"}}
	data, err := pickle.Marshal(rec)
	if err != nil {
		return nil, err
	}
	bigMap := make(map[string]string, 1000)
	for i := 0; i < 1000; i++ {
		bigMap[fmt.Sprintf("key-%04d", i)] = strings.Repeat("v", 32)
	}

	out := map[string]microJSON{}
	out["pickle_marshal_record"] = micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pickle.Marshal(rec); err != nil {
				b.Fatal(err)
			}
		}
	}))
	out["pickle_unmarshal_record"] = micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var r benchRecord
			if err := pickle.Unmarshal(data, &r); err != nil {
				b.Fatal(err)
			}
		}
	}))
	out["pickle_marshal_map1000"] = micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := pickle.Marshal(bigMap); err != nil {
				b.Fatal(err)
			}
		}
	}))

	fs := vfs.NewMem(1)
	l, err := wal.Create(fs, "microbench.log", 1, wal.Options{})
	if err != nil {
		return nil, err
	}
	defer l.Close()
	payload := make([]byte, 256)
	out["wal_append_256"] = micro(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := l.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	}))
	return out, nil
}

// latJSON summarizes client-observed latencies of one workload phase.
type latJSON struct {
	Count int   `json:"count"`
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

func summarize(ds []time.Duration) latJSON {
	if len(ds) == 0 {
		return latJSON{}
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	pick := func(q float64) int64 {
		// Nearest-rank, rounding up: with few samples the quantile must
		// not fall below the observations it claims to cover.
		i := int(q*float64(len(ds))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(ds) {
			i = len(ds) - 1
		}
		return ds[i].Nanoseconds()
	}
	return latJSON{
		Count: len(ds),
		P50NS: pick(0.50),
		P99NS: pick(0.99),
		MaxNS: ds[len(ds)-1].Nanoseconds(),
	}
}

// checkpointStallMode measures update latency around one checkpoint of a
// large root dragged through a throughput-paced disk: steady-state latency
// with no checkpoint in flight, then the latency of updates issued while
// the checkpoint runs. With the mirror-window protocol the two should be
// indistinguishable; with BlockingCheckpoint the in-window updates stall
// for the whole disk write.
func checkpointStallMode(blocking bool, seed int64, rootEntries, valBytes int, bps int64) (map[string]any, error) {
	reg := obs.NewRegistry()
	slow := vfs.NewSlow(vfs.NewMem(seed))
	// FullCheckpoints: the stall being measured is a whole large root
	// dragged through the slow disk; an incremental delta of the few
	// steady-state updates would finish before the spin below ever saw it
	// in flight.
	ns, err := nameserver.Open(nameserver.Config{FS: slow, Obs: reg, Retain: 1, BlockingCheckpoint: blocking, FullCheckpoints: true})
	if err != nil {
		return nil, err
	}
	defer ns.Close()

	// Build the root and compact it at full disk speed.
	val := strings.Repeat("x", valBytes)
	for i := 0; i < rootEntries; i++ {
		if err := ns.Set(fmt.Sprintf("stall/dir%d/e%d", i%61, i), val); err != nil {
			return nil, err
		}
	}
	if err := ns.Checkpoint(); err != nil {
		return nil, err
	}

	slow.SetDelay(0, bps)
	defer slow.SetDelay(0, 0)

	steady := make([]time.Duration, 0, 256)
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		if err := ns.Set(fmt.Sprintf("steady/e%d", i), "v"); err != nil {
			return nil, err
		}
		steady = append(steady, time.Since(t0))
	}

	cpDone := make(chan error, 1)
	cpStart := time.Now()
	go func() { cpDone <- ns.Checkpoint() }()
	// Don't start measuring until the checkpoint is actually in flight:
	// updates squeezed in before its goroutine is scheduled would dilute
	// the blocking mode's percentiles with unblocked samples.
	inflight := reg.Gauge("core_checkpoint_inflight")
	var cpErr error
	finished := false
	for inflight.Value() == 0 && !finished {
		select {
		case cpErr = <-cpDone:
			finished = true // too quick to overlap; "during" stays empty
		default:
			runtime.Gosched()
		}
	}
	var during []time.Duration
	for i := 0; !finished; i++ {
		select {
		case cpErr = <-cpDone:
			finished = true
		default:
			t0 := time.Now()
			if err := ns.Set(fmt.Sprintf("during/e%d", i), "v"); err != nil {
				return nil, err
			}
			during = append(during, time.Since(t0))
		}
	}
	if cpErr != nil {
		return nil, cpErr
	}
	cpElapsed := time.Since(cpStart)
	st := ns.Stats()
	return map[string]any{
		"blocking":         blocking,
		"checkpoint_ns":    cpElapsed.Nanoseconds(),
		"steady":           summarize(steady),
		"during":           summarize(during),
		"lock_stall_ns":    st.CheckpointStallTime.Nanoseconds(),
		"mirrored_entries": reg.Counter("checkpoint_mirrored_entries").Value(),
	}, nil
}

// checkpointStallJSON runs checkpointStallMode for the mirror-window
// protocol and the BlockingCheckpoint ablation on the same root and disk.
func checkpointStallJSON(seed int64, quick bool) (map[string]any, error) {
	rootEntries, valBytes, bps := 4096, 4096, int64(64<<20) // 16 MiB root, ~250ms checkpoint
	if quick {
		rootEntries = 1024 // 4 MiB root, ~60ms checkpoint
	}
	nonblocking, err := checkpointStallMode(false, seed, rootEntries, valBytes, bps)
	if err != nil {
		return nil, err
	}
	blocking, err := checkpointStallMode(true, seed, rootEntries, valBytes, bps)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"root_bytes":          int64(rootEntries) * int64(valBytes),
		"disk_bytes_per_sec":  bps,
		"nonblocking":         nonblocking,
		"blocking_checkpoint": blocking,
	}, nil
}

// cpScaleMode holds one (root size, checkpoint mode) measurement: the I/O
// of a checkpoint taken after a fixed amount of churn, and the restart that
// follows it. The restart decomposes into the base-image read — which grows
// with root size in either mode, because the whole root must reach memory —
// and the churn-proportional remainder (delta apply plus log replay). The
// scaling claim is about the checkpoint bytes and that remainder.
type cpScaleMode struct {
	CheckpointWriteBytes int64 `json:"checkpoint_write_bytes"`
	CheckpointFileBytes  int64 `json:"checkpoint_file_bytes"`
	ChainLength          int   `json:"chain_length"`
	RestartNS            int64 `json:"restart_ns"`
	RestartReadBytes     int64 `json:"restart_read_bytes"`
	RestartBaseNS        int64 `json:"restart_base_ns"`
	RestartChurnNS       int64 `json:"restart_churn_ns"`
	RestartDeltaBytes    int64 `json:"restart_delta_bytes"`
	DeltasApplied        int   `json:"deltas_applied"`
}

// checkpointScalingMode builds a root of entries values, takes a full base
// checkpoint, overwrites churn entries spread across the key space, and
// measures the next checkpoint (a delta by default, a full image under the
// FullCheckpoints ablation) plus the restart from the resulting disk state,
// all through a counting fs so the bytes are what the disk saw.
func checkpointScalingMode(seed int64, entries, churn, valBytes int, full bool) (cpScaleMode, error) {
	cfs := vfs.NewCounting(vfs.NewMem(seed))
	open := func() (*nameserver.Server, error) {
		return nameserver.Open(nameserver.Config{FS: cfs, Retain: 1, FullCheckpoints: full})
	}
	name := func(i int) string { return fmt.Sprintf("cpscale/dir%d/e%d", i%127, i) }
	ns, err := open()
	if err != nil {
		return cpScaleMode{}, err
	}
	val := strings.Repeat("x", valBytes)
	fail := func(err error) (cpScaleMode, error) { ns.Close(); return cpScaleMode{}, err }
	for i := 0; i < entries; i++ {
		if err := ns.Set(name(i), val); err != nil {
			return fail(err)
		}
	}
	if err := ns.Checkpoint(); err != nil { // the full base image
		return fail(err)
	}
	stride := entries / churn
	for i := 0; i < churn; i++ {
		if err := ns.Set(name(i*stride), val+"y"); err != nil {
			return fail(err)
		}
	}
	cfs.Reset()
	if err := ns.Checkpoint(); err != nil { // the measured checkpoint
		return fail(err)
	}
	m := cpScaleMode{CheckpointWriteBytes: cfs.WriteBytes()}
	st := ns.Stats()
	m.CheckpointFileBytes = st.LastCheckpointBytes
	m.ChainLength = st.ChainLength
	if err := ns.Close(); err != nil {
		return cpScaleMode{}, err
	}

	cfs.Reset()
	t0 := time.Now()
	ns2, err := open()
	if err != nil {
		return cpScaleMode{}, err
	}
	m.RestartNS = time.Since(t0).Nanoseconds()
	m.RestartReadBytes = cfs.ReadBytes()
	rst := ns2.Stats()
	m.RestartBaseNS = rst.RestartCheckpointTime.Nanoseconds()
	m.RestartChurnNS = (rst.RestartDeltaTime + rst.RestartReplayTime).Nanoseconds()
	m.RestartDeltaBytes = rst.RestartDeltaBytes
	m.DeltasApplied = rst.RestartDeltasApplied
	return m, ns2.Close()
}

// checkpointScalingJSON sweeps root sizes S, 2S, 4S at a fixed absolute
// churn (10% of S) in both checkpoint modes. With incremental checkpoints
// the delta's bytes and the restart's churn component should track the
// churn — near-flat across the sweep — while the FullCheckpoints ablation's
// bytes track the root and grow ~4×.
func checkpointScalingJSON(seed int64, quick bool) (map[string]any, error) {
	base, valBytes := 8192, 256
	if quick {
		base = 2048
	}
	churn := base / 10
	sizes := []int{base, 2 * base, 4 * base}
	var points []map[string]any
	var deltas, fulls []cpScaleMode
	for _, n := range sizes {
		d, err := checkpointScalingMode(seed, n, churn, valBytes, false)
		if err != nil {
			return nil, err
		}
		f, err := checkpointScalingMode(seed, n, churn, valBytes, true)
		if err != nil {
			return nil, err
		}
		deltas, fulls = append(deltas, d), append(fulls, f)
		points = append(points, map[string]any{"entries": n, "delta": d, "full": f})
	}
	ratio := func(a, b int64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	return map[string]any{
		"churn_entries": churn,
		"value_bytes":   valBytes,
		"sizes":         sizes,
		"points":        points,
		// The CI gate's summary numbers: delta-vs-full bytes at the size
		// where churn is 10% of the root, and the 4x growth factors.
		"delta_vs_full_bytes_at_10pct":  ratio(deltas[0].CheckpointWriteBytes, fulls[0].CheckpointWriteBytes),
		"delta_bytes_growth_4x":         ratio(deltas[2].CheckpointWriteBytes, deltas[0].CheckpointWriteBytes),
		"full_bytes_growth_4x":          ratio(fulls[2].CheckpointWriteBytes, fulls[0].CheckpointWriteBytes),
		"restart_delta_bytes_growth_4x": ratio(deltas[2].RestartDeltaBytes, deltas[0].RestartDeltaBytes),
		"restart_churn_ns_growth_4x":    ratio(deltas[2].RestartChurnNS, deltas[0].RestartChurnNS),
	}, nil
}

// tracingOverheadMode measures client-observed update latency on a
// throughput-paced disk under one tracing configuration: tracer absent,
// tracer set to Nop (the allocation-free disabled path), or a live span
// collector with every update carrying a fresh root trace (what `nsctl
// trace` and /debug/trace cost when they are used on every request).
func tracingOverheadMode(seed int64, ops int, bps int64, tracer obs.Tracer, traced bool) (latJSON, error) {
	slow := vfs.NewSlow(vfs.NewMem(seed))
	ns, err := nameserver.Open(nameserver.Config{FS: slow, Tracer: tracer})
	if err != nil {
		return latJSON{}, err
	}
	defer ns.Close()
	slow.SetDelay(0, bps)
	defer slow.SetDelay(0, 0)
	val := strings.Repeat("x", 1024)
	lat := make([]time.Duration, 0, ops)
	for i := 0; i < ops; i++ {
		name := fmt.Sprintf("trace/dir%d/e%d", i%31, i)
		t0 := time.Now()
		if traced {
			err = ns.SetTraced(name, val, obs.NewRootContext())
		} else {
			err = ns.Set(name, val)
		}
		if err != nil {
			return latJSON{}, err
		}
		lat = append(lat, time.Since(t0))
	}
	return summarize(lat), nil
}

// tracingOverheadJSON compares commit latency with tracing disabled, with
// the Nop tracer, and with full per-update span collection into a
// TraceBuffer, reporting the full-collection p99 overhead over disabled.
func tracingOverheadJSON(seed int64, quick bool) (map[string]any, error) {
	ops, bps := 2000, int64(16<<20)
	if quick {
		ops = 400
	}
	disabled, err := tracingOverheadMode(seed, ops, bps, nil, false)
	if err != nil {
		return nil, err
	}
	nop, err := tracingOverheadMode(seed, ops, bps, obs.Nop, false)
	if err != nil {
		return nil, err
	}
	full, err := tracingOverheadMode(seed, ops, bps, obs.NewTraceBuffer(4096), true)
	if err != nil {
		return nil, err
	}
	var pct float64
	if disabled.P99NS > 0 {
		pct = 100 * float64(full.P99NS-disabled.P99NS) / float64(disabled.P99NS)
	}
	return map[string]any{
		"updates":            ops,
		"disk_bytes_per_sec": bps,
		"disabled":           disabled,
		"nop":                nop,
		"full":               full,
		"p99_overhead_pct":   pct,
	}, nil
}

// networkResilienceJSON runs a 2-replica workload through a hostile netsim
// link — 10% message drop, 10% flaky dials, up to 20ms added delay — with
// the client driving the NS service on replica "a" via CallRetry. Every
// update must succeed despite the weather (retries absorb all faults), the
// replicas must converge once anti-entropy runs, and the snapshot records
// how hard the resilience machinery worked (rpc_retries, rpc_reconnects,
// netsim drop counts).
func networkResilienceJSON(seed int64, quick bool) (map[string]any, error) {
	updates := 1000
	if quick {
		updates = 250
	}
	profile := netsim.Profile{
		DropProb:     0.10,
		DelayProb:    0.20,
		MaxDelay:     20 * time.Millisecond,
		DialFailProb: 0.10,
	}
	reg := obs.NewRegistry()
	nw := netsim.New(seed, netsim.Options{Profile: profile, Obs: reg})
	defer nw.Close()

	peerPolicy := rpc.RetryPolicy{Budget: 5 * time.Second, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, PerTry: time.Second}
	open := func(name string) (*replica.Node, *rpc.Server, *netsim.Listener, error) {
		node, err := replica.Open(replica.Config{Name: name, FS: vfs.NewMem(seed), HistoryCap: updates + 10, PushPolicy: peerPolicy, SyncPolicy: peerPolicy})
		if err != nil {
			return nil, nil, nil, err
		}
		srv := rpc.NewServer()
		if err := srv.Register("Replica", replica.NewService(node)); err != nil {
			node.Close()
			return nil, nil, nil, err
		}
		if name == "a" {
			if err := srv.Register("NS", replica.NewNSService(node)); err != nil {
				node.Close()
				return nil, nil, nil, err
			}
		}
		l, err := nw.Listen(name)
		if err != nil {
			srv.Close()
			node.Close()
			return nil, nil, nil, err
		}
		go func() {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				go srv.ServeConn(conn)
			}
		}()
		return node, srv, l, nil
	}
	a, aSrv, _, err := open("a")
	if err != nil {
		return nil, err
	}
	defer a.Close()
	defer aSrv.Close()
	b, bSrv, _, err := open("b")
	if err != nil {
		return nil, err
	}
	defer b.Close()
	defer bSrv.Close()
	ab := rpc.NewClientDialer(nw.Dialer("a", "b"))
	ab.Instrument(reg)
	a.AddPeer("b", ab)
	ba := rpc.NewClientDialer(nw.Dialer("b", "a"))
	ba.Instrument(reg)

	// The client reaches replica "a" over the same hostile link.
	cli := rpc.NewClientDialer(nw.Dialer("client", "a"))
	cli.Instrument(reg)
	defer cli.Close()
	policy := rpc.RetryPolicy{Budget: 10 * time.Second, BaseDelay: time.Millisecond, MaxDelay: 100 * time.Millisecond, PerTry: 2 * time.Second}

	clientErrors := 0
	start := time.Now()
	for i := 0; i < updates; i++ {
		args := &nameserver.SetArgs{Name: fmt.Sprintf("net/bench/e%d", i), Value: fmt.Sprintf("v%d", i)}
		if err := cli.CallRetry("NS.Set", args, nil, policy); err != nil {
			clientErrors++
		}
	}
	elapsed := time.Since(start)

	// Clear weather for the convergence check; anti-entropy owes the rest.
	nw.SetProfile(netsim.Profile{})
	converged := false
	for round := 0; round < 20; round++ {
		if err := b.SyncWith(ba); err != nil {
			continue
		}
		va, erra := a.Vector()
		vb, errb := b.Vector()
		if erra == nil && errb == nil && va["a"] == vb["a"] && va["a"] == uint64(updates) {
			converged = true
			break
		}
	}

	snap := reg.Snapshot()
	stat := func(name string) any {
		if v, ok := snap[name]; ok {
			return v
		}
		return uint64(0)
	}
	return map[string]any{
		"updates":        updates,
		"elapsed_ns":     elapsed.Nanoseconds(),
		"drop_prob":      profile.DropProb,
		"max_delay_ns":   profile.MaxDelay.Nanoseconds(),
		"client_errors":  clientErrors,
		"converged":      converged,
		"rpc_retries":    stat("rpc_retries"),
		"rpc_reconnects": stat("rpc_reconnects"),
		"rpc_timeouts":   stat("rpc_timeouts"),
		"netsim_drops":   stat("netsim_drops"),
		"netsim_delays":  stat("netsim_delays"),
		"netsim_dials":   stat("netsim_dials"),
	}, nil
}

// readScalingPoint is one goroutine count's throughput in the read
// scaling section.
type readScalingPoint struct {
	Goroutines   int     `json:"goroutines"`
	ReadsPerSec  float64 `json:"reads_per_sec"`
	WritesPerSec float64 `json:"writes_per_sec"`
}

// readScalingMode runs the 95/5 enquiry/update mix at each goroutine
// count against one store configuration and reports per-count read
// throughput plus how many enquiries ever fell back to the shared lock.
func readScalingMode(seed int64, locked bool, counts []int, dur time.Duration) (map[string]any, error) {
	reg := obs.NewRegistry()
	ns, err := nameserver.Open(nameserver.Config{FS: vfs.NewMem(seed), Obs: reg, LockedEnquiries: locked})
	if err != nil {
		return nil, err
	}
	defer ns.Close()

	// A modest preloaded working set: lookups hit real paths.
	const keys = 512
	names := make([]string, keys)
	for i := range names {
		names[i] = fmt.Sprintf("scale/dir%d/e%d", i%31, i)
		if err := ns.Set(names[i], fmt.Sprintf("v%d", i)); err != nil {
			return nil, err
		}
	}

	var points []readScalingPoint
	for _, g := range counts {
		var reads, writes atomic.Uint64
		var stop atomic.Bool
		var wg sync.WaitGroup
		errs := make(chan error, g)
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(g*1000+w)))
				for i := 0; !stop.Load(); i++ {
					if rng.Intn(100) < 5 {
						if err := ns.Set(names[rng.Intn(keys)], "w"); err != nil {
							errs <- err
							return
						}
						writes.Add(1)
					} else {
						if _, err := ns.Lookup(names[rng.Intn(keys)]); err != nil {
							errs <- err
							return
						}
						reads.Add(1)
					}
					if i%64 == 0 {
						// Periodic yield keeps the mix fair on small
						// GOMAXPROCS without distorting per-op cost.
						runtime.Gosched()
					}
				}
			}(w)
		}
		time.Sleep(dur)
		stop.Store(true)
		wg.Wait()
		close(errs)
		for err := range errs {
			return nil, err
		}
		secs := dur.Seconds()
		points = append(points, readScalingPoint{
			Goroutines:   g,
			ReadsPerSec:  float64(reads.Load()) / secs,
			WritesPerSec: float64(writes.Load()) / secs,
		})
	}

	var scaling float64
	if points[0].ReadsPerSec > 0 {
		scaling = points[len(points)-1].ReadsPerSec / points[0].ReadsPerSec
	}
	return map[string]any{
		"locked_enquiries": locked,
		"points":           points,
		"scaling_maxg":     scaling,
		"locked_reads":     reg.Counter("core_enquiries_locked").Value(),
	}, nil
}

// readScalingJSON measures enquiry throughput scaling across goroutine
// counts for the lock-free versioned read path and the locked-enquiries
// ablation. The CI gate on the versioned numbers is core-count-aware:
// single-core runners cannot show parallel speedup, so num_cpu and
// gomaxprocs are recorded alongside.
func readScalingJSON(seed int64, quick bool) (map[string]any, error) {
	counts := []int{1, 4, 16, 32}
	dur := 300 * time.Millisecond
	if quick {
		dur = 150 * time.Millisecond
	}
	versioned, err := readScalingMode(seed, false, counts, dur)
	if err != nil {
		return nil, err
	}
	locked, err := readScalingMode(seed, true, counts, dur)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"goroutines":       counts,
		"duration_ns":      dur.Nanoseconds(),
		"read_fraction":    0.95,
		"num_cpu":          runtime.NumCPU(),
		"gomaxprocs":       runtime.GOMAXPROCS(0),
		"versioned":        versioned,
		"locked_enquiries": locked,
	}, nil
}

// quorumGroupMode measures quorum-commit latency on an N-node replica
// group at write quorum w over a clean netsim network: one primary fans
// every update out to the members and acknowledges once w of them
// (itself included) have it durably.
func quorumGroupMode(seed int64, n, w, updates int) (map[string]any, error) {
	nw := netsim.New(seed, netsim.Options{})
	defer nw.Close()

	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	policy := rpc.RetryPolicy{Budget: 5 * time.Second, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, PerTry: time.Second}
	gcfg := replica.GroupConfig{
		Self:          name(0),
		W:             w,
		QuorumTimeout: 10 * time.Second,
		// Healthy members never need the repair loop; a fast tick would
		// only preempt the measured path on small machines.
		AntiEntropyEvery: 50 * time.Millisecond,
		PushPolicy:       policy,
		SyncPolicy:       policy,
	}
	for i := 0; i < n; i++ {
		gcfg.Members = append(gcfg.Members, replica.Member{Name: name(i), Addr: "netsim"})
	}

	var nodes []*replica.Node
	var servers []*rpc.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
		for _, node := range nodes {
			node.Close()
		}
	}()
	for i := 0; i < n; i++ {
		node, err := replica.Open(replica.Config{Name: name(i), FS: vfs.NewMem(seed + int64(i)), HistoryCap: updates + 10})
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, node)
		if i == 0 {
			continue
		}
		srv := rpc.NewServer()
		if err := srv.Register("Replica", replica.NewService(node)); err != nil {
			return nil, err
		}
		servers = append(servers, srv)
		l, err := nw.Listen(name(i))
		if err != nil {
			return nil, err
		}
		go func(srv *rpc.Server, l *netsim.Listener) {
			for {
				conn, err := l.Accept()
				if err != nil {
					return
				}
				go srv.ServeConn(conn)
			}
		}(srv, l)
	}

	group, err := replica.NewGroup(nodes[0], gcfg)
	if err != nil {
		return nil, err
	}
	defer group.Close()
	for i := 1; i < n; i++ {
		if err := group.Connect(name(i), rpc.NewClientDialer(nw.Dialer(name(0), name(i)))); err != nil {
			return nil, err
		}
	}

	// Warmup outside the measurement: the first push to each member pays
	// the dial, and the percentiles are about steady state.
	for i := 0; i < 25; i++ {
		if err := group.Set(fmt.Sprintf("quorum/warm/e%d", i), "w"); err != nil {
			return nil, fmt.Errorf("quorum warmup %d (W=%d): %w", i, w, err)
		}
	}

	lat := make([]time.Duration, 0, updates)
	start := time.Now()
	for i := 0; i < updates; i++ {
		t0 := time.Now()
		if err := group.Set(fmt.Sprintf("quorum/bench/e%d", i), fmt.Sprintf("v%d", i)); err != nil {
			return nil, fmt.Errorf("quorum set %d (W=%d): %w", i, w, err)
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	sum := summarize(lat)
	return map[string]any{
		"nodes":          n,
		"w":              group.W(),
		"updates":        updates,
		"latency":        sum,
		"writes_per_sec": float64(updates) / elapsed.Seconds(),
	}, nil
}

// pairPushMode is the 2-node ablation: the pre-group replication path,
// where the primary's Set returns after the local commit plus the
// synchronous best-effort push to its single peer.
func pairPushMode(seed int64, updates int) (map[string]any, error) {
	nw := netsim.New(seed, netsim.Options{})
	defer nw.Close()
	policy := rpc.RetryPolicy{Budget: 5 * time.Second, BaseDelay: time.Millisecond, MaxDelay: 50 * time.Millisecond, PerTry: time.Second}
	a, err := replica.Open(replica.Config{Name: "a", FS: vfs.NewMem(seed), HistoryCap: updates + 10, PushPolicy: policy, SyncPolicy: policy})
	if err != nil {
		return nil, err
	}
	defer a.Close()
	b, err := replica.Open(replica.Config{Name: "b", FS: vfs.NewMem(seed + 1), HistoryCap: updates + 10})
	if err != nil {
		return nil, err
	}
	defer b.Close()
	srv := rpc.NewServer()
	defer srv.Close()
	if err := srv.Register("Replica", replica.NewService(b)); err != nil {
		return nil, err
	}
	l, err := nw.Listen("b")
	if err != nil {
		return nil, err
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	a.AddPeer("b", rpc.NewClientDialer(nw.Dialer("a", "b")))

	for i := 0; i < 25; i++ {
		if err := a.Set(fmt.Sprintf("quorum/warm/e%d", i), "w"); err != nil {
			return nil, err
		}
	}

	lat := make([]time.Duration, 0, updates)
	start := time.Now()
	for i := 0; i < updates; i++ {
		t0 := time.Now()
		if err := a.Set(fmt.Sprintf("quorum/bench/e%d", i), fmt.Sprintf("v%d", i)); err != nil {
			return nil, err
		}
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start)
	return map[string]any{
		"nodes":          2,
		"updates":        updates,
		"latency":        summarize(lat),
		"writes_per_sec": float64(updates) / elapsed.Seconds(),
	}, nil
}

// quorumCommitJSON sweeps the write quorum on a 5-node group — W=1 (ack on
// local commit), W=majority, W=N (every member durable before the ack) —
// against the 2-node push-path ablation, all over a clean network so the
// numbers isolate the quorum protocol's own cost. The CI gate reads
// majority_p99_ns vs pair_p99_ns.
func quorumCommitJSON(seed int64, quick bool) (map[string]any, error) {
	updates, n, reps := 500, 5, 3
	if quick {
		updates = 150
	}
	// Median of reps by p99, symmetrically for every mode: with a few
	// hundred samples a single scheduler hiccup owns the p99 in either
	// direction, and the middle repetition is the stable estimate of the
	// protocol's own cost.
	p99of := func(m map[string]any) int64 { return m["latency"].(latJSON).P99NS }
	best := func(run func(rep int) (map[string]any, error)) (map[string]any, error) {
		outs := make([]map[string]any, 0, reps)
		for rep := 0; rep < reps; rep++ {
			m, err := run(rep)
			if err != nil {
				return nil, err
			}
			outs = append(outs, m)
		}
		sort.Slice(outs, func(i, j int) bool { return p99of(outs[i]) < p99of(outs[j]) })
		return outs[len(outs)/2], nil
	}
	w1, err := best(func(rep int) (map[string]any, error) {
		return quorumGroupMode(seed+int64(rep), n, 1, updates)
	})
	if err != nil {
		return nil, err
	}
	majority, err := best(func(rep int) (map[string]any, error) {
		return quorumGroupMode(seed+int64(rep), n, replica.Majority(n), updates)
	})
	if err != nil {
		return nil, err
	}
	all, err := best(func(rep int) (map[string]any, error) {
		return quorumGroupMode(seed+int64(rep), n, n, updates)
	})
	if err != nil {
		return nil, err
	}
	pair, err := best(func(rep int) (map[string]any, error) {
		return pairPushMode(seed+int64(rep), updates)
	})
	if err != nil {
		return nil, err
	}
	majP99 := majority["latency"].(latJSON).P99NS
	pairP99 := pair["latency"].(latJSON).P99NS
	var ratio float64
	if pairP99 > 0 {
		ratio = float64(majP99) / float64(pairP99)
	}
	return map[string]any{
		"nodes":   n,
		"updates": updates,
		// The gate comparing majority to the pair path is core-count-aware
		// like the scaling gates: the fan-out's four push chains overlap on
		// real machines but serialize behind the measured commit on a
		// single-core runner.
		"num_cpu":              runtime.NumCPU(),
		"gomaxprocs":           runtime.GOMAXPROCS(0),
		"w1":                   w1,
		"majority":             majority,
		"all":                  all,
		"pair_push":            pair,
		"majority_p99_ns":      majP99,
		"pair_p99_ns":          pairP99,
		"majority_vs_pair_p99": ratio,
	}, nil
}

// writeMetricsJSON runs the fixed metrics workload — an instrumented
// in-memory store under a mixed update/enquiry load — and writes the
// resulting snapshot.
func writeMetricsJSON(path string, ops int, seed int64, quick bool) error {
	reg := obs.NewRegistry()
	cfs := vfs.NewCounting(vfs.NewMem(seed))
	ns, err := nameserver.Open(nameserver.Config{FS: cfs, Obs: reg})
	if err != nil {
		return err
	}
	defer ns.Close()

	start := time.Now()
	for i := 0; i < ops; i++ {
		name := fmt.Sprintf("bench/dir%d/entry%d", i%31, i)
		if err := ns.Set(name, fmt.Sprintf("value-%d", i)); err != nil {
			return err
		}
		// One enquiry per update keeps the read path in the snapshot.
		if _, err := ns.Lookup(name); err != nil {
			return err
		}
	}
	cfs.Reset() // isolate the checkpoint's own I/O from the workload's
	if err := ns.Checkpoint(); err != nil {
		return err
	}
	cpWriteBytes := cfs.WriteBytes()
	elapsed := time.Since(start)
	st := ns.Stats()

	micros, err := microBenches()
	if err != nil {
		return err
	}
	stall, err := checkpointStallJSON(seed, quick)
	if err != nil {
		return err
	}
	netres, err := networkResilienceJSON(seed, quick)
	if err != nil {
		return err
	}
	traceOv, err := tracingOverheadJSON(seed, quick)
	if err != nil {
		return err
	}
	readScaling, err := readScalingJSON(seed, quick)
	if err != nil {
		return err
	}
	cpScaling, err := checkpointScalingJSON(seed, quick)
	if err != nil {
		return err
	}
	quorum, err := quorumCommitJSON(seed, quick)
	if err != nil {
		return err
	}

	out := map[string]any{
		"schema": "smalldb-bench-metrics/v1",
		"ops": map[string]uint64{"updates": st.Updates, "enquiries": st.Enquiries, "checkpoints": st.Checkpoints,
			"delta_checkpoints": st.DeltaCheckpoints, "compactions": st.Compactions},
		"checkpoint_bytes": map[string]int64{
			// What the last checkpoint of the metrics workload cost the
			// disk (fs write counter) and the pickled file size itself.
			"write_bytes": cpWriteBytes,
			"file_bytes":  st.LastCheckpointBytes,
			"chain_len":   int64(st.ChainLength),
		},
		"elapsed_ns": elapsed.Nanoseconds(),
		"phases": map[string]phaseJSON{
			"verify":            phase(st.VerifyDist),
			"pickle":            phase(st.PickleDist),
			"commit":            phase(st.CommitDist),
			"apply":             phase(st.ApplyDist),
			"checkpoint_pickle": phase(st.CheckpointPickleDist),
			"checkpoint_io":     phase(st.CheckpointIODist),
			"checkpoint_switch": phase(st.CheckpointSwitchDist),
		},
		"checkpoint_stall":   stall,
		"checkpoint_scaling": cpScaling,
		"micro":              micros,
		"network_resilience": netres,
		"quorum_commit":      quorum,
		"tracing_overhead":   traceOv,
		"read_scaling":       readScaling,
		"metrics":            reg.Snapshot(),
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
