package crashtest

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// Modes of the torture run.
const (
	// ModeStore tortures a bare name-server store: recovery must surface
	// exactly the acknowledged prefix, and replaying the remaining updates
	// must reach the full-workload oracle.
	ModeStore = "store"
	// ModeReplica tortures one node of a two-node replica group at W = 2,
	// so the peer holds every update the pair acknowledged (with
	// UnsafeNoSync it is the only place they are): after the crashed node
	// recovers, anti-entropy with its peer must restore every one of them,
	// then the workload finishes on the recovered node and both replicas
	// must converge on the full oracle.
	ModeReplica = "replica"
)

// Config configures one torture run.
type Config struct {
	// Seed fixes the workload; (Seed, crash point) replays any failure.
	Seed int64
	// Ops is the number of updates in the workload (default 50).
	Ops int
	// CheckpointEvery checkpoints after every k-th update, so the crash
	// points sweep through the checkpoint-switch windows. 0 picks
	// Ops/4+1 (several switches per run); negative disables checkpoints.
	CheckpointEvery int
	// Mode is ModeStore or ModeReplica (default ModeStore).
	Mode string
	// From and To bound the crash points to replay, inclusive; To <= 0
	// means "through the last operation". The full sweep is [0, N] where
	// N is the workload's total op count: point n crashes just before
	// the n-th operation, point N is the crash-free run.
	From, To int64
	// Stride replays every Stride-th point in [From, To] (default 1).
	Stride int64
	// Shards is the number of crash points replayed concurrently
	// (default GOMAXPROCS). Points are independent, so sharding does not
	// affect the result.
	Shards int
	// OverlapCheckpoints commits workload updates *inside* each
	// checkpoint's mirror window: at every checkpoint stage (mirror
	// open, file written, version flipped) the workload applies a couple
	// more updates through the store's stage hook, so the crash sweep
	// covers updates that are acknowledged while the whole-database
	// write is in flight and durable only through the mirror protocol.
	OverlapCheckpoints bool
	// UnsafeNoSync runs the workload without log syncs. In ModeStore
	// this is a self-test: the harness must report lost acknowledged
	// updates. In ModeReplica it exercises the paper's §4 story — the
	// node forfeits local durability and recovery restores the lost
	// updates from the peer; no violation is expected.
	UnsafeNoSync bool
	// ReplayWorkers passes through to recovery's decode pipeline
	// (0 = auto, 1 = sequential), so the sweep can torture pipelined
	// restart at every crash point.
	ReplayWorkers int
	// LogShards is the store's redo-log stream count (0 or 1 = the
	// paper's single stream). The harness always opens its stores
	// Deterministic, so each epoch seal syncs its streams one at a time in
	// stream order and the sweep's fs-op indexing stays deterministic —
	// crash points then land inside individual stream syncs and, with
	// Batch, between the streams of one epoch.
	LogShards int
	// Batch groups every Batch consecutive workload updates into one
	// ApplyBatch call: one epoch barrier spanning several streams, so the
	// sweep covers crashes after some streams of an epoch synced but
	// before the rest. 0 or 1 applies updates one at a time. Checkpoint
	// cadence is rounded up to a batch multiple so the schedule still
	// fires.
	Batch int
	// MaxDeltaChain caps the delta chain before a compaction rewrites it
	// into a fresh full base (0 = the store default). Small values put
	// compactions inside the sweep, so crash points land mid-rewrite
	// (Deterministic runs a due compaction inside the checkpoint that
	// tripped it, on the workload thread).
	MaxDeltaChain int
	// Readers runs this many concurrent snapshot readers alongside every
	// workload — the reference run, each crash replay, and the post-crash
	// catch-up — each continuously validating that a pinned snapshot at
	// sequence k fingerprints exactly to the oracle prefix fp[k]. The
	// readers take no locks and perform no file-system operations, so the
	// crash-point op indexing stays deterministic; what they add is the
	// check that lock-free enquiries never observe a torn or stale
	// version, at every crash point. 0 disables.
	Readers int
	// HistoryCap bounds the replica nodes' anti-entropy history in
	// ModeReplica (0 = the replica default, 4096). A cap below Ops puts the
	// history trim inside the sweep: every crash point then also lands
	// around a trimmed history, its delta checkpoints' dropped-prefix
	// counts, and — once a node has lost more than the cap — the
	// snapshot-install catch-up.
	HistoryCap int
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)
}

// Violation is one broken durability invariant, replayable from
// (Seed, Point) with the same Config.
type Violation struct {
	Seed  int64
	Mode  string
	Point int64
	Msg   string
}

func (v Violation) String() string {
	return fmt.Sprintf("seed=%d mode=%s crash-point=%d: %s", v.Seed, v.Mode, v.Point, v.Msg)
}

// Result summarizes a torture run.
type Result struct {
	Mode       string
	Seed       int64
	Ops        int
	TotalFSOps int64 // N: mutating fs ops in the crash-free workload
	Points     int   // crash points replayed
	// ModeReplica only: DeltaRecoveries counts the crash points whose
	// recovery loaded a delta-checkpoint chain, FullRestores the snapshot
	// installs a catch-up needed because the history no longer reached
	// back far enough.
	DeltaRecoveries uint64
	FullRestores    uint64
	Violations      []Violation
}

type runner struct {
	cfg     Config
	cpEvery int
	plan    *plan
	rec     *recorder

	// reg collects every replica node's counters across all points, plus
	// the harness's own deltaRecoveriesCounter.
	reg *obs.Registry
}

// Run executes the torture: a reference run to count operations and record
// acknowledgement windows, then one full workload replay per crash point.
func Run(cfg Config) (*Result, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 50
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeStore
	}
	if cfg.Mode != ModeStore && cfg.Mode != ModeReplica {
		return nil, fmt.Errorf("crashtest: unknown mode %q", cfg.Mode)
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.Batch < 1 {
		cfg.Batch = 1
	}
	cpEvery := cfg.CheckpointEvery
	if cpEvery == 0 {
		cpEvery = cfg.Ops/4 + 1
	}
	if cpEvery > 0 && cfg.Batch > 1 {
		// The loop checkpoints when the update index is a cpEvery
		// multiple; batched indices advance Batch at a time, so align the
		// cadence or it might never fire.
		cpEvery = ((cpEvery + cfg.Batch - 1) / cfg.Batch) * cfg.Batch
	}
	r := &runner{cfg: cfg, cpEvery: cpEvery, plan: makePlan(cfg.Seed, cfg.Ops), reg: obs.NewRegistry()}

	n, err := r.reference()
	if err != nil {
		return nil, fmt.Errorf("crashtest: reference run failed: %w", err)
	}

	from := cfg.From
	if from < 0 {
		from = 0
	}
	to := cfg.To
	if to <= 0 || to > n {
		to = n
	}
	var points []int64
	for p := from; p <= to; p += cfg.Stride {
		points = append(points, p)
	}
	r.logf("crashtest: mode=%s seed=%d ops=%d fs-ops=%d points=%d shards=%d",
		cfg.Mode, cfg.Seed, cfg.Ops, n, len(points), cfg.Shards)

	res := &Result{Mode: cfg.Mode, Seed: cfg.Seed, Ops: cfg.Ops, TotalFSOps: n, Points: len(points)}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		next atomic.Int64
		done atomic.Int64
	)
	next.Store(-1)
	for w := 0; w < cfg.Shards; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1)
				if i >= int64(len(points)) {
					return
				}
				vs := r.point(points[i])
				if len(vs) > 0 {
					mu.Lock()
					res.Violations = append(res.Violations, vs...)
					mu.Unlock()
				}
				if d := done.Add(1); d%64 == 0 {
					r.logf("crashtest: %d/%d points done", d, len(points))
				}
			}
		}()
	}
	wg.Wait()
	res.DeltaRecoveries = r.reg.Counter(deltaRecoveriesCounter).Value()
	res.FullRestores = r.reg.Counter(fullRestoresCounter).Value()
	if cfg.Mode == ModeReplica {
		r.logf("crashtest: delta-recoveries=%d full-restores=%d", res.DeltaRecoveries, res.FullRestores)
	}
	sort.Slice(res.Violations, func(i, j int) bool { return res.Violations[i].Point < res.Violations[j].Point })
	return res, nil
}

// deltaRecoveriesCounter counts, in runner.reg, the replica-mode crash points
// whose recovery applied at least one delta checkpoint.
const deltaRecoveriesCounter = "crashtest_delta_recoveries"

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// point replays one crash point, converting a harness panic into a
// violation rather than killing the whole sweep.
func (r *runner) point(n int64) (vs []Violation) {
	defer func() {
		if p := recover(); p != nil {
			vs = append(vs, r.violation(n, "harness panic: %v", p))
		}
	}()
	if r.cfg.Mode == ModeReplica {
		return r.replicaPoint(n)
	}
	return r.storePoint(n)
}

func (r *runner) violation(n int64, format string, args ...any) Violation {
	return Violation{Seed: r.cfg.Seed, Mode: r.cfg.Mode, Point: n, Msg: fmt.Sprintf(format, args...)}
}

// reference runs the workload crash-free on an instrumented fs, recording
// each update's op-index window and the total op count N.
func (r *runner) reference() (int64, error) {
	ffs := faultfs.New(vfs.NewMem(r.cfg.Seed), faultfs.Options{CrashAt: faultfs.Never})
	rec := &recorder{}
	rc := r.newReaderCheck()
	var err error
	if r.cfg.Mode == ModeReplica {
		peer, shutdown, perr := r.newPeer()
		if perr != nil {
			return 0, perr
		}
		err = r.runReplicaWorkload(ffs, peer, rec, ffs.OpCount, rc)
		shutdown()
	} else {
		err = r.runStoreWorkload(ffs, rec, ffs.OpCount, rc)
	}
	if msgs := rc.finish(); err == nil && len(msgs) > 0 {
		err = fmt.Errorf("concurrent reader: %s", msgs[0])
	}
	if err != nil {
		return 0, err
	}
	if len(rec.ackOp) != len(r.plan.updates) {
		return 0, fmt.Errorf("reference run acked %d of %d updates", len(rec.ackOp), len(r.plan.updates))
	}
	r.rec = rec
	return ffs.OpCount(), nil
}

// overlapPerStage is how many workload updates OverlapCheckpoints commits
// at each checkpoint stage — six per checkpoint, spread across the mirror
// window's three stages.
const overlapPerStage = 2

// workloadLoop drives the shared plan through apply/checkpoint callbacks:
// the updates run in plan order through doOne (which records ack windows
// and advances the shared index), with a checkpoint after every cpEvery-th
// update. In overlap mode the checkpoint callback consumes further updates
// mid-window via the store's stage hook, which is why the index lives in
// the closure rather than a range loop.
func (r *runner) workloadLoop(doOne func() error, checkpoint func() error, k *int) error {
	for *k < len(r.plan.updates) {
		if err := doOne(); err != nil {
			return err
		}
		if r.cpEvery > 0 && *k%r.cpEvery == 0 {
			if err := checkpoint(); err != nil {
				return err
			}
		}
	}
	return nil
}

// step commits the plan's next Batch updates through apply, recording each
// one's op-index window when rec is set, and advances *k past them.
func (r *runner) step(k *int, rec *recorder, opCount func() int64, apply func([]core.Update) error) error {
	end := min(*k+r.cfg.Batch, len(r.plan.updates))
	if rec != nil {
		for j := *k; j < end; j++ {
			rec.start(opCount())
		}
	}
	if err := apply(r.plan.updates[*k:end]); err != nil {
		return err
	}
	if rec != nil {
		for j := *k; j < end; j++ {
			rec.ack(opCount())
		}
	}
	*k = end
	return nil
}

// overlapCheckpoint runs one checkpoint with the stage hook applying
// overlapPerStage more workload updates at each stage of the mirror
// window, then clears the hook. The first error — from the checkpoint
// itself or from an in-window update — stops the workload.
func overlapCheckpoint(st *core.Store, cp func() error, doOne func() error, remaining func() bool) error {
	var hookErr error
	st.SetCheckpointStageHook(func(core.CheckpointStage) {
		for i := 0; i < overlapPerStage; i++ {
			if hookErr != nil || !remaining() {
				return
			}
			hookErr = doOne()
		}
	})
	err := cp()
	st.SetCheckpointStageHook(nil)
	if err != nil {
		return err
	}
	return hookErr
}

// --- concurrent snapshot readers ---

// readerCheck drives Config.Readers snapshot readers against a store
// while a workload runs, validating every observed version against the
// plan's per-prefix oracle fingerprints. Reads are lock-free and touch no
// file system, so they cannot perturb the crash-point determinism of the
// workload they overlap.
type readerCheck struct {
	readers int
	plan    *plan
	stop    atomic.Bool
	wg      sync.WaitGroup
	mu      sync.Mutex
	errs    []string
}

func (r *runner) newReaderCheck() *readerCheck {
	return &readerCheck{readers: r.cfg.Readers, plan: r.plan}
}

func (rc *readerCheck) fail(format string, args ...any) {
	rc.mu.Lock()
	rc.errs = append(rc.errs, fmt.Sprintf(format, args...))
	rc.mu.Unlock()
}

// launch starts the readers against an open store. treeOf extracts the
// name tree from a snapshot root (bare tree in store mode, replica root's
// tree in replica mode).
func (rc *readerCheck) launch(st *core.Store, treeOf func(any) *nameserver.Tree) {
	for i := 0; i < rc.readers; i++ {
		rc.wg.Add(1)
		go func() {
			defer rc.wg.Done()
			defer func() {
				if p := recover(); p != nil {
					rc.fail("reader panic: %v", p)
				}
			}()
			for !rc.stop.Load() {
				snap, err := st.SnapshotAt()
				if err != nil {
					rc.fail("snapshot: %v", err)
					return
				}
				seq := int(snap.Seq())
				var msg string
				if seq >= len(rc.plan.fp) {
					msg = fmt.Sprintf("snapshot at seq %d beyond the %d-update plan", seq, len(rc.plan.updates))
				} else if fp := fingerprintTree(treeOf(snap.Root())); fp != rc.plan.fp[seq] {
					msg = fmt.Sprintf("snapshot at seq %d diverges from the oracle prefix of %d updates", seq, seq)
				}
				snap.Release()
				if msg != "" {
					rc.fail("%s", msg)
					return
				}
				// Yield so spinning lock-free readers never starve the
				// single-threaded workload on a small GOMAXPROCS.
				runtime.Gosched()
			}
		}()
	}
}

// finish stops the readers and reports every validation failure. Safe to
// call after the store has closed: pending reads are pure memory reads of
// published versions.
func (rc *readerCheck) finish() []string {
	rc.stop.Store(true)
	rc.wg.Wait()
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.errs
}

func storeTree(root any) *nameserver.Tree   { return root.(*nameserver.Tree) }
func replicaTree(root any) *nameserver.Tree { return root.(*replica.Root).Tree }

// --- flight recorder ---

// flightName is the ring file the torture workloads record into, on the
// same tortured fs as the store itself.
const flightName = "flightrec"

// openFlight starts the workload's flight recorder in synchronous mode, so
// its fs ops are deterministic (reference and crash runs see identical op
// indices) and every event is durable before the update that emitted it is
// acknowledged to the harness.
func openFlight(fs vfs.FS) (*obs.FlightRecorder, error) {
	return obs.OpenFlight(obs.FlightConfig{FS: fs, Name: flightName, FlushEvery: 0})
}

// maxCommitSeq scans a decoded flight tail for the newest committed
// sequence — "update.commit" events carry the last sequence of their commit
// call, a single update or a whole batch; 0 means no commit event survived.
func maxCommitSeq(events []obs.Event) int {
	max := 0
	for _, e := range events {
		if e.Name != "update.commit" {
			continue
		}
		for _, a := range e.Attrs {
			if a.Key != "seq" {
				continue
			}
			if v, err := strconv.Atoi(fmt.Sprint(a.Value)); err == nil && v > max {
				max = v
			}
		}
	}
	return max
}

// checkFlight validates the crash-surviving flight recorder against the
// acked-prefix oracle on a post-crash durable image. Once any update has
// been acknowledged the ring must be present and decodable, its tail
// non-empty, and its newest commit event within [acked-1, attempted]: the
// lower bound is acked-1 rather than acked because the crash can land on
// the commit event's own slot write, after the update's log sync already
// made it durable (and acknowledgeable).
func (r *runner) checkFlight(n int64, fs vfs.FS, acked, attempted int) []Violation {
	events, err := obs.ReadFlight(fs, flightName)
	if err != nil {
		if acked == 0 {
			return nil // crashed before the ring header was durable
		}
		return []Violation{r.violation(n, "flight: unreadable after crash with %d acked updates: %v", acked, err)}
	}
	if acked == 0 {
		return nil
	}
	if len(events) == 0 {
		return []Violation{r.violation(n, "flight: empty tail after crash with %d acked updates", acked)}
	}
	max := maxCommitSeq(events)
	// With batching the whole batch shares one event, so the crash landing
	// on that event's own ring write can leave the newest surviving event a
	// full batch behind the acknowledged frontier.
	if max < acked-r.cfg.Batch {
		return []Violation{r.violation(n, "flight: newest commit event is seq %d but %d updates were acknowledged", max, acked)}
	}
	if max > attempted {
		return []Violation{r.violation(n, "flight: phantom commit event seq %d with only %d updates attempted", max, attempted)}
	}
	return nil
}

// --- store mode ---

// runStoreWorkload replays the plan against one store on fs, interleaving
// checkpoints, stopping at the first error (the crash, in a torture
// replay).
func (r *runner) runStoreWorkload(fs vfs.FS, rec *recorder, opCount func() int64, rc *readerCheck) error {
	fl, err := openFlight(fs)
	if err != nil {
		return err // in a torture replay, the crash landed on the ring setup
	}
	defer fl.Close()
	srv, err := nameserver.Open(nameserver.Config{FS: fs, UnsafeNoSync: r.cfg.UnsafeNoSync, ReplayWorkers: r.cfg.ReplayWorkers,
		LogShards: r.cfg.LogShards, Deterministic: true, Tracer: fl,
		MaxDeltaChain: r.cfg.MaxDeltaChain})
	if err != nil {
		return err
	}
	st := srv.Store()
	rc.launch(st, storeTree)
	k := 0
	// One update or a batch: the store commits both the same way.
	doOne := func() error { return r.step(&k, rec, opCount, st.ApplyBatch) }
	checkpoint := srv.Checkpoint
	if r.cfg.OverlapCheckpoints {
		checkpoint = func() error {
			return overlapCheckpoint(st, srv.Checkpoint, doOne, func() bool { return k < len(r.plan.updates) })
		}
	}
	if err := r.workloadLoop(doOne, checkpoint, &k); err != nil {
		srv.Close()
		return err
	}
	return srv.Close()
}

// storePoint crashes the workload before op n, recovers from the frozen
// durable image through the normal restart path, and checks the
// invariants.
func (r *runner) storePoint(n int64) (out []Violation) {
	ffs := faultfs.New(vfs.NewMem(r.cfg.Seed), faultfs.Options{CrashAt: n})
	rc := r.newReaderCheck()
	_ = r.runStoreWorkload(ffs, nil, ffs.OpCount, rc) // error is the crash itself

	snap := ffs.Snapshot()
	acked, attempted := r.rec.ackedAt(n), r.rec.attemptedAt(n)
	out = r.checkFlight(n, snap, acked, attempted)
	for _, msg := range rc.finish() {
		out = append(out, r.violation(n, "concurrent reader: %s", msg))
	}

	srv, err := nameserver.Open(nameserver.Config{FS: snap, ReplayWorkers: r.cfg.ReplayWorkers,
		LogShards: r.cfg.LogShards, Deterministic: true,
		MaxDeltaChain: r.cfg.MaxDeltaChain})
	if err != nil {
		return append(out, r.violation(n, "recovery failed: %v", err))
	}
	defer srv.Close()

	// Readers also overlap the recovered store's catch-up, so the sweep
	// covers snapshots taken while a freshly recovered database is still
	// absorbing the rest of the workload.
	rc2 := r.newReaderCheck()
	rc2.launch(srv.Store(), storeTree)
	defer func() {
		for _, msg := range rc2.finish() {
			out = append(out, r.violation(n, "catch-up reader: %s", msg))
		}
	}()

	recovered := int(srv.Store().AppliedSeq())
	// The lower bound holds unconditionally in store mode: with
	// UnsafeNoSync it is exactly the violation the self-test expects the
	// harness to catch.
	if recovered < acked {
		out = append(out, r.violation(n, "durability: recovered %d updates but %d were acknowledged", recovered, acked))
	}
	if recovered > attempted {
		out = append(out, r.violation(n, "phantom: recovered %d updates but only %d were attempted", recovered, attempted))
		return out
	}
	got, err := storeFingerprint(srv)
	if err != nil {
		return append(out, r.violation(n, "reading recovered state: %v", err))
	}
	if got != r.plan.fp[recovered] {
		return append(out, r.violation(n, "atomicity: recovered state diverges from the oracle prefix of %d updates", recovered))
	}
	// Catch-up: the recovered state must accept the rest of the workload
	// and land exactly on the full oracle.
	for k := recovered; k < len(r.plan.updates); k++ {
		if err := srv.Store().Apply(r.plan.updates[k]); err != nil {
			return append(out, r.violation(n, "catch-up: update %d rejected after recovery: %v", k, err))
		}
	}
	if got, err := storeFingerprint(srv); err != nil || got != r.plan.fp[len(r.plan.updates)] {
		out = append(out, r.violation(n, "catch-up: state after finishing the workload diverges from the full oracle (%v)", err))
	}
	return out
}

func storeFingerprint(srv *nameserver.Server) (uint64, error) {
	var fp uint64
	err := srv.Store().View(func(root any) error {
		t, ok := root.(*nameserver.Tree)
		if !ok {
			return fmt.Errorf("root is %T, not *nameserver.Tree", root)
		}
		fp = fingerprintTree(t)
		return nil
	})
	return fp, err
}

// --- replica mode ---

// peer is the crash-free replica "b": node "a" commits at W = 2, so every
// update it acknowledges has been pushed here and after a crash it holds
// exactly the acknowledged prefix.
type peer struct {
	node *replica.Node
	srv  *rpc.Server
}

func (r *runner) newPeer() (*peer, func(), error) {
	node, err := replica.Open(replica.Config{Name: "b", FS: vfs.NewMem(r.cfg.Seed + 1), HistoryCap: r.cfg.HistoryCap, Obs: r.reg})
	if err != nil {
		return nil, nil, err
	}
	srv := rpc.NewServer()
	if err := srv.Register("Replica", replica.NewService(node)); err != nil {
		node.Close()
		return nil, nil, err
	}
	p := &peer{node: node, srv: srv}
	shutdown := func() {
		p.node.Close()
		p.srv.Close()
	}
	return p, shutdown, nil
}

// dial opens a fresh in-memory connection to the peer.
func (p *peer) dial() *rpc.Client {
	cc, sc := net.Pipe()
	go p.srv.ServeConn(sc)
	return rpc.NewClient(cc)
}

// dialNode stands up an RPC endpoint for node and returns a client
// connected to it, so the peer can pull from the recovered node (the
// reverse direction of anti-entropy).
func dialNode(node *replica.Node) (*rpc.Client, func(), error) {
	srv := rpc.NewServer()
	if err := srv.Register("Replica", replica.NewService(node)); err != nil {
		return nil, nil, err
	}
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	return rpc.NewClient(cc), func() { srv.Close() }, nil
}

// pairOf is node "a"'s group: itself and the peer, every update acked by
// both.
var pairOf = replica.GroupConfig{Members: []replica.Member{{Name: "a", Addr: "pipe"}, {Name: "b", Addr: "pipe"}}, W: 2}

// runReplicaWorkload replays the plan through node "a" on fs, each update
// acked once the peer holds it too, checkpointing on the same schedule as
// store mode.
func (r *runner) runReplicaWorkload(fs vfs.FS, p *peer, rec *recorder, opCount func() int64, rc *readerCheck) error {
	fl, err := openFlight(fs)
	if err != nil {
		return err // in a torture replay, the crash landed on the ring setup
	}
	defer fl.Close()
	node, err := replica.Open(replica.Config{Name: "a", FS: fs, HistoryCap: r.cfg.HistoryCap, UnsafeNoSync: r.cfg.UnsafeNoSync, ReplayWorkers: r.cfg.ReplayWorkers,
		LogShards: r.cfg.LogShards, Deterministic: true, Tracer: fl, Obs: r.reg,
		MaxDeltaChain: r.cfg.MaxDeltaChain, GroupConfig: pairOf})
	if err != nil {
		return err
	}
	if err := node.Connect("b", p.dial()); err != nil {
		node.Close()
		return err
	}
	rc.launch(node.Store(), replicaTree)
	k := 0
	// One update or a batch: the node commits both the same way.
	doOne := func() error { return r.step(&k, rec, opCount, node.ApplyBatch) }
	checkpoint := node.Checkpoint
	if r.cfg.OverlapCheckpoints {
		checkpoint = func() error {
			return overlapCheckpoint(node.Store(), node.Checkpoint, doOne, func() bool { return k < len(r.plan.updates) })
		}
	}
	if err := r.workloadLoop(doOne, checkpoint, &k); err != nil {
		node.Close()
		return err
	}
	return node.Close()
}

// replicaPoint crashes node "a" before op n, recovers it, pulls the missing
// suffix from the peer (anti-entropy catch-up), finishes the workload on
// the recovered node, and requires both replicas to converge on the full
// oracle.
func (r *runner) replicaPoint(n int64) (out []Violation) {
	p, shutdown, err := r.newPeer()
	if err != nil {
		return []Violation{r.violation(n, "harness: opening peer: %v", err)}
	}
	defer shutdown()

	ffs := faultfs.New(vfs.NewMem(r.cfg.Seed), faultfs.Options{CrashAt: n})
	rc := r.newReaderCheck()
	_ = r.runReplicaWorkload(ffs, p, nil, ffs.OpCount, rc) // error is the crash itself

	snap := ffs.Snapshot()
	acked, attempted := r.rec.ackedAt(n), r.rec.attemptedAt(n)
	out = r.checkFlight(n, snap, acked, attempted)
	for _, msg := range rc.finish() {
		out = append(out, r.violation(n, "concurrent reader: %s", msg))
	}

	node, err := replica.Open(replica.Config{Name: "a", FS: snap, HistoryCap: r.cfg.HistoryCap, ReplayWorkers: r.cfg.ReplayWorkers,
		LogShards: r.cfg.LogShards, Deterministic: true, Obs: r.reg,
		MaxDeltaChain: r.cfg.MaxDeltaChain, GroupConfig: pairOf})
	if err != nil {
		return append(out, r.violation(n, "recovery failed: %v", err))
	}
	defer node.Close()
	if node.Store().Stats().RestartDeltasApplied > 0 {
		r.reg.Counter(deltaRecoveriesCounter).Inc()
	}

	// Readers overlap the recovered node's anti-entropy catch-up and the
	// rest of the workload. Node "a" only ever applies its own origin's
	// updates — locally or pulled back from the peer — so its store
	// sequence keeps indexing the oracle prefixes throughout.
	rc2 := r.newReaderCheck()
	rc2.launch(node.Store(), replicaTree)
	defer func() {
		for _, msg := range rc2.finish() {
			out = append(out, r.violation(n, "catch-up reader: %s", msg))
		}
	}()

	vec, err := node.Vector()
	if err != nil {
		return append(out, r.violation(n, "reading recovered vector: %v", err))
	}
	recovered := int(vec["a"])
	if !r.cfg.UnsafeNoSync && recovered < acked {
		out = append(out, r.violation(n, "durability: recovered %d updates but %d were acknowledged", recovered, acked))
	}
	if recovered > attempted {
		out = append(out, r.violation(n, "phantom: recovered %d updates but only %d were attempted", recovered, attempted))
		return out
	}
	if got, err := replicaFingerprint(node); err != nil || got != r.plan.fp[recovered] {
		return append(out, r.violation(n, "atomicity: recovered state diverges from the oracle prefix of %d updates (%v)", recovered, err))
	}

	// Catch-up: one full anti-entropy round, both directions. The pull
	// restores every acknowledged update from the peer — even when the
	// crashed node ran without local log syncs — and the reverse pull
	// hands the peer any update that committed locally inside the crash
	// window but died before its push (with the mirror-window
	// checkpoint, an update can be durable in the old log yet
	// unacknowledged until the new log's sync, so recovery may surface
	// acked+1 updates). The peer can likewise hold one update past the
	// acked prefix: the flight-recorder write between the log sync and
	// the ack is a crash point, and a crash there still lets the
	// already-durable update's push go out. Both replicas must agree on
	// the longest of the three prefixes, and the peer must never have
	// dropped an acknowledged update.
	pvec, err := p.node.Vector()
	if err != nil {
		return append(out, r.violation(n, "harness: reading peer vector: %v", err))
	}
	peerHas := int(pvec["a"])
	if peerHas < acked {
		out = append(out, r.violation(n, "durability: peer holds %d updates but %d were acknowledged", peerHas, acked))
	}
	if peerHas > attempted {
		out = append(out, r.violation(n, "phantom: peer holds %d updates but only %d were attempted", peerHas, attempted))
		return out
	}
	upto := recovered
	if acked > upto {
		upto = acked
	}
	if peerHas > upto {
		upto = peerHas
	}
	client := p.dial()
	if err := node.Connect("b", client); err != nil {
		return append(out, r.violation(n, "harness: connecting the peer: %v", err))
	}
	if err := node.SyncWith(client); err != nil {
		return append(out, r.violation(n, "catch-up: anti-entropy pull failed: %v", err))
	}
	if got, err := replicaFingerprint(node); err != nil || got != r.plan.fp[upto] {
		return append(out, r.violation(n, "catch-up: state after anti-entropy diverges from the oracle prefix of %d updates (acked %d, recovered %d: %v)", upto, acked, recovered, err))
	}
	back, closeBack, err := dialNode(node)
	if err != nil {
		return append(out, r.violation(n, "harness: serving recovered node: %v", err))
	}
	defer closeBack()
	if err := p.node.SyncWith(back); err != nil {
		return append(out, r.violation(n, "catch-up: reverse anti-entropy pull failed: %v", err))
	}
	if got, err := replicaFingerprint(p.node); err != nil || got != r.plan.fp[upto] {
		return append(out, r.violation(n, "peer diverges from the oracle prefix of %d updates after anti-entropy (%v)", upto, err))
	}

	// Finish the workload on the recovered node, each update acked by the
	// peer too; both replicas must land on the full oracle.
	for k := upto; k < len(r.plan.updates); k++ {
		if err := node.Apply(r.plan.updates[k]); err != nil {
			return append(out, r.violation(n, "catch-up: update %d rejected after recovery: %v", k, err))
		}
	}
	if got, err := replicaFingerprint(node); err != nil || got != r.plan.fp[len(r.plan.updates)] {
		out = append(out, r.violation(n, "recovered node misses the full oracle after finishing the workload (%v)", err))
	}
	if got, err := replicaFingerprint(p.node); err != nil || got != r.plan.fp[len(r.plan.updates)] {
		out = append(out, r.violation(n, "replicas diverge after finishing the workload (%v)", err))
	}
	return out
}

func replicaFingerprint(node *replica.Node) (uint64, error) {
	var fp uint64
	err := node.Store().View(func(root any) error {
		rr, ok := root.(*replica.Root)
		if !ok {
			return fmt.Errorf("root is %T, not *replica.Root", root)
		}
		fp = fingerprintTree(rr.Tree)
		return nil
	})
	return fp, err
}
