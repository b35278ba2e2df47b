package crashtest

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/netsim"
	"smalldb/internal/obs"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// Modes of the torture run: what is tortured and by which kind of fault.
const (
	// ModeStore power-fails a bare name-server store before every fs op:
	// recovery must surface exactly the acknowledged prefix, and replaying
	// the remaining updates must reach the full-workload oracle.
	ModeStore = "store"
	// ModeReplica power-fails member 0 of a two-node replica group at
	// W = 2 before every fs op, so the other member holds every update the
	// group acknowledged (with UnsafeNoSync it is the only place they are):
	// after the crashed node recovers, anti-entropy with its peer must
	// restore every one of them, then the workload finishes on the recovered
	// node and both replicas must converge on the full oracle.
	ModeReplica = "replica"
	// ModeNet is the partition fault: the workload commits through member 0
	// of an N-node group at write quorum W, and just before every update k a
	// seeded N − W of the other members are cut away from everyone. The
	// next Window updates must still be acknowledged against the survivors;
	// then the partition heals — with Crash, the point's rotating victim
	// loses power first and restarts from its durable image — and every
	// member must converge with no acknowledged update lost, all under
	// Profile's network weather.
	ModeNet = "net"
)

// Config configures one torture run. Every field but the five marked
// ModeNet applies to every mode.
type Config struct {
	// Seed fixes the workload and, combined with the point, the network
	// fault schedule; (Seed, point) replays any failure.
	Seed int64
	// Ops is the number of updates in the workload (default 50).
	Ops int
	// CheckpointEvery checkpoints after every k-th update, so the crash
	// points sweep through the checkpoint-switch windows. 0 picks
	// Ops/4+1 (several switches per run); negative disables checkpoints.
	CheckpointEvery int
	// Mode is ModeStore, ModeReplica or ModeNet (default ModeStore).
	Mode string
	// From and To bound the points to replay, inclusive; To <= 0 means
	// "through the last one". A crash sweep's points are [0, N] where N is
	// the workload's total fs-op count: point n loses power just before the
	// n-th operation, point N is the crash-free run. A partition sweep's are
	// [0, Ops − Window]: point k cuts the network just before update k.
	From, To int64
	// Stride replays every Stride-th point in [From, To] (default 1).
	Stride int64
	// Shards is the number of points replayed concurrently (default
	// GOMAXPROCS). Points are independent, so sharding does not affect the
	// result.
	Shards int
	// OverlapCheckpoints commits workload updates *inside* each
	// checkpoint's mirror window: at every checkpoint stage (mirror
	// open, file written, version flipped) the workload applies a couple
	// more updates through the store's stage hook, so the crash sweep
	// covers updates that are acknowledged while the whole-database
	// write is in flight and durable only through the mirror protocol.
	OverlapCheckpoints bool
	// UnsafeNoSync runs the tortured node's workload without log syncs.
	// Where nobody else holds its updates — ModeStore, or W = 1 — this is a
	// self-test: the harness must report lost acknowledged updates. At
	// W > 1 it exercises the paper's §4 story — the node forfeits local
	// durability and recovery restores the lost updates from the other
	// members; no violation is expected.
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
	// workload — the reference run, each point's replay, and the post-fault
	// catch-up — each continuously validating that a pinned snapshot at
	// sequence k fingerprints exactly to the oracle prefix fp[k]. The
	// readers take no locks and perform no file-system operations, so the
	// crash-point op indexing stays deterministic; what they add is the
	// check that lock-free enquiries never observe a torn or stale
	// version, at every point. 0 disables.
	Readers int
	// HistoryCap bounds every replica node's anti-entropy history (0 = the
	// replica default, 4096 — above any sweep's op count). A cap below Ops
	// puts the history trim inside the sweep: every point then also lands
	// around a trimmed history and its delta checkpoints' dropped-prefix
	// counts, and a member that has lost more than the cap — to a crash
	// without syncs, or to a partition longer than the cap — can only be
	// repaired by a full snapshot install.
	HistoryCap int

	// Window (ModeNet) is how many updates commit during each partition
	// (default 5).
	Window int
	// Crash (ModeNet) also power-fails the point's victim (point mod N; 0
	// is the member taking the writes) at the heal point: the updates acked
	// during the partition must survive the partition plus the crash.
	Crash bool
	// Nodes (ModeNet) is the group size N; 0 and 2 run a pair.
	Nodes int
	// Quorum (ModeNet) is the write quorum W (0 = ⌈N/2⌉: 1 for a pair, the
	// majority for odd N). Each point cuts N − W members, the most the
	// window can still be acknowledged without.
	Quorum int
	// Profile (ModeNet) is the network weather for the whole run — drops,
	// delays, flaky dials. Retries must absorb it; the sweep clears the
	// weather only for the convergence checks.
	Profile netsim.Profile

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
	TotalFSOps int64 // N: mutating fs ops in the crash-free workload (crash sweeps)
	Points     int   // points replayed
	// DeltaRecoveries counts the points whose recovery loaded a
	// delta-checkpoint chain, FullRestores the snapshot installs across all
	// points and nodes: a catch-up or repair the history no longer reached
	// back far enough to serve.
	DeltaRecoveries uint64
	FullRestores    uint64
	Violations      []Violation
}

type runner struct {
	cfg     Config // defaults filled in
	cpEvery int
	plan    *plan
	rec     *recorder // crash sweeps: the reference run's ack windows

	// The subject's shape: N members at write quorum W. A bare store is
	// N = W = 1 with no group; otherwise member 0 takes the writes under
	// group and policy.
	nodes, quorum int
	group         replica.GroupConfig
	policy        rpc.RetryPolicy

	// reg collects every replica node's counters across all points, plus
	// the harness's own deltaRecoveriesCounter.
	reg *obs.Registry
}

const (
	// deltaRecoveriesCounter counts, in runner.reg, the points whose
	// recovery applied at least one delta checkpoint.
	deltaRecoveriesCounter = "crashtest_delta_recoveries"
	// fullRestoresCounter is the replica node's snapshot-install counter.
	fullRestoresCounter = "replica_full_restores"
)

// netPolicy fails pushes fast when the member is partitioned away — repair
// must get to the next member promptly — while absorbing the profile's
// transient faults by retry.
var netPolicy = rpc.RetryPolicy{MaxAttempts: 4, Budget: 500 * time.Millisecond, BaseDelay: 500 * time.Microsecond, MaxDelay: 5 * time.Millisecond, PerTry: 200 * time.Millisecond}

// Run executes the torture: for a crash sweep a reference run to count
// operations and record acknowledgement windows, then one full workload
// replay per point.
func Run(cfg Config) (*Result, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 50
	}
	if cfg.Mode == "" {
		cfg.Mode = ModeStore
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
	r := &runner{nodes: 1, quorum: 1, reg: obs.NewRegistry()}
	switch cfg.Mode {
	case ModeStore:
	case ModeReplica:
		r.nodes, r.quorum = 2, 2
	case ModeNet:
		if cfg.Window <= 0 {
			cfg.Window = 5
		}
		if cfg.Window > cfg.Ops {
			return nil, fmt.Errorf("crashtest: window %d exceeds ops %d", cfg.Window, cfg.Ops)
		}
		r.nodes, r.quorum = max(cfg.Nodes, 2), cfg.Quorum
		if r.quorum == 0 {
			r.quorum = (r.nodes + 1) / 2
		}
		if r.quorum < 1 || r.quorum > r.nodes {
			return nil, fmt.Errorf("crashtest: quorum %d out of range for %d nodes", r.quorum, r.nodes)
		}
	default:
		return nil, fmt.Errorf("crashtest: unknown mode %q", cfg.Mode)
	}
	if r.nodes > 1 {
		r.group = replica.GroupConfig{W: r.quorum, QuorumTimeout: 10 * time.Second}
		for i := 0; i < r.nodes; i++ {
			r.group.Members = append(r.group.Members, replica.Member{Name: memberName(i), Addr: "netsim"})
		}
	}
	if cfg.Mode == ModeNet {
		// Partitions are the point: give up on a cut member fast and retry
		// its repair often.
		r.policy, r.group.AntiEntropyEvery = netPolicy, 5*time.Millisecond
	} else {
		// A crash sweep's network is clean and its fs-op indexing must not
		// move, but a timed-out push or a probe caught by Close is traced —
		// into the flight ring on the tortured fs, as fs ops. So nothing
		// times out short of the rpc defaults, and the anti-entropy ticker
		// never fires within a point.
		cfg.Profile = netsim.Profile{}
		r.group.AntiEntropyEvery = time.Hour
	}
	r.cpEvery = cfg.CheckpointEvery
	if r.cpEvery == 0 {
		r.cpEvery = cfg.Ops/4 + 1
	}
	if r.cpEvery > 0 && cfg.Batch > 1 {
		// The loop checkpoints when the update index is a cpEvery
		// multiple; batched indices advance Batch at a time, so align the
		// cadence or it might never fire.
		r.cpEvery = ((r.cpEvery + cfg.Batch - 1) / cfg.Batch) * cfg.Batch
	}
	r.cfg, r.plan = cfg, makePlan(cfg.Seed, cfg.Ops)

	res := &Result{Mode: cfg.Mode, Seed: cfg.Seed, Ops: cfg.Ops}
	last := int64(cfg.Ops - cfg.Window)
	if cfg.Mode != ModeNet {
		n, err := r.reference()
		if err != nil {
			return nil, fmt.Errorf("crashtest: reference run failed: %w", err)
		}
		res.TotalFSOps, last = n, n
	}
	to := cfg.To
	if to <= 0 || to > last {
		to = last
	}
	var points []int64
	for p := max(cfg.From, 0); p <= to; p += cfg.Stride {
		points = append(points, p)
	}
	res.Points = len(points)
	r.logf("crashtest: mode=%s seed=%d ops=%d nodes=%d quorum=%d fs-ops=%d points=%d shards=%d",
		cfg.Mode, cfg.Seed, cfg.Ops, r.nodes, r.quorum, res.TotalFSOps, len(points), cfg.Shards)

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
	r.logf("crashtest: delta-recoveries=%d full-restores=%d", res.DeltaRecoveries, res.FullRestores)
	sort.Slice(res.Violations, func(i, j int) bool { return res.Violations[i].Point < res.Violations[j].Point })
	return res, nil
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

func (r *runner) violation(p int64, format string, args ...any) Violation {
	return Violation{Seed: r.cfg.Seed, Mode: r.cfg.Mode, Point: p, Msg: fmt.Sprintf(format, args...)}
}

// --- the subject: a bare store, or member 0 of a group on a private network ---

// memberName names group member i. Member 0 is "a" and the crash sweep's
// peer "b", as they have always been: a node's name is pickled into its
// vector and history, and the store's delta-or-full checkpoint choice — so
// the fs-op indexing — follows those bytes.
func memberName(i int) string { return string(rune('a' + i)) }

// endpoint is one replica node serving the Replica RPC service on a point's
// private network.
type endpoint struct {
	node *replica.Node
	srv  *rpc.Server
	l    *netsim.Listener
}

func openEndpoint(nw *netsim.Network, cfg replica.Config) (*endpoint, error) {
	node, err := replica.Open(cfg)
	if err != nil {
		return nil, err
	}
	srv := rpc.NewServer()
	if err := srv.Register("Replica", replica.NewService(node)); err != nil {
		node.Close()
		return nil, err
	}
	l, err := nw.Listen(cfg.Name)
	if err != nil {
		srv.Close()
		node.Close()
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
	return &endpoint{node: node, srv: srv, l: l}, nil
}

func (e *endpoint) close() error {
	e.srv.Close()
	e.l.Close()
	return e.node.Close()
}

// memberConfig is how every group member opens its store; member 0
// additionally gets the group, and for its workload the flight recorder and
// UnsafeNoSync.
func (r *runner) memberConfig(i int, fs vfs.FS) replica.Config {
	return replica.Config{Name: memberName(i), FS: fs, HistoryCap: r.cfg.HistoryCap, ReplayWorkers: r.cfg.ReplayWorkers,
		LogShards: r.cfg.LogShards, Deterministic: true, MaxDeltaChain: r.cfg.MaxDeltaChain,
		PushPolicy: r.policy, SyncPolicy: r.policy, Obs: r.reg}
}

// member is one of the group's other members: it applies what member 0
// pushes and originates nothing.
type member struct {
	*endpoint
	ffs *faultfs.FS
}

// world is one point's private universe: its network, the tortured node's
// disk, and the other members (none around a bare store).
type world struct {
	nw      *netsim.Network
	ffs     *faultfs.FS
	members []*member
}

// newWorld builds point p's world; (seed, point) fixes the weather, the
// choice of members to cut and the crash victim — any failure replays. The
// tortured disk loses power before its fs op crashAt.
func (r *runner) newWorld(p, crashAt int64) (*world, error) {
	w := &world{
		nw:  netsim.New(r.pointSeed(p), netsim.Options{Profile: r.cfg.Profile, TraceCap: 256}),
		ffs: faultfs.New(vfs.NewMem(r.cfg.Seed), faultfs.Options{CrashAt: crashAt}),
	}
	for i := 1; i < r.nodes; i++ {
		ffs := faultfs.New(vfs.NewMem(r.cfg.Seed+int64(i)), faultfs.Options{CrashAt: faultfs.Never})
		ep, err := openEndpoint(w.nw, r.memberConfig(i, ffs))
		if err != nil {
			w.close()
			return nil, err
		}
		w.members = append(w.members, &member{endpoint: ep, ffs: ffs})
	}
	return w, nil
}

func (r *runner) pointSeed(p int64) int64 { return r.cfg.Seed*1000003 + p }

func (w *world) close() {
	for _, m := range w.members {
		if m.endpoint != nil {
			m.close()
		}
	}
	w.nw.Close()
}

// subject is the tortured database behind the few operations the workload
// and the post-fault check need.
type subject struct {
	store      *core.Store
	applyBatch func([]core.Update) error
	checkpoint func() error
	close      func() error
	treeOf     func(root any) *nameserver.Tree
	node       *replica.Node // nil for a bare store
}

func storeTree(root any) *nameserver.Tree   { return root.(*nameserver.Tree) }
func replicaTree(root any) *nameserver.Tree { return root.(*replica.Root).Tree }

// flightName is the ring file the torture workloads record into, on the
// same tortured fs as the store itself.
const flightName = "flightrec"

// open opens the tortured database on fs — the bare store, or member 0
// serving on w's network and connected to every other member — and starts
// rc's readers on it. The workload phase runs under UnsafeNoSync when
// configured and records into a flight ring on fs, in synchronous mode so
// its fs ops are deterministic (reference and crash runs see identical op
// indices) and every event is durable before the update that emitted it is
// acknowledged to the harness; recovery from a durable image does neither.
func (r *runner) open(w *world, fs vfs.FS, workload bool, rc *readerCheck) (s *subject, err error) {
	var tracer obs.Tracer
	closeFlight := func() {}
	if workload {
		fl, err := obs.OpenFlight(obs.FlightConfig{FS: fs, Name: flightName, FlushEvery: 0})
		if err != nil {
			return nil, err // in a crash replay, the crash landed on the ring setup
		}
		tracer, closeFlight = fl, func() { fl.Close() }
		defer func() {
			if err != nil {
				closeFlight()
			}
		}()
	}
	noSync := workload && r.cfg.UnsafeNoSync
	if r.nodes == 1 {
		srv, err := nameserver.Open(nameserver.Config{FS: fs, UnsafeNoSync: noSync, ReplayWorkers: r.cfg.ReplayWorkers,
			LogShards: r.cfg.LogShards, Deterministic: true, Tracer: tracer, MaxDeltaChain: r.cfg.MaxDeltaChain})
		if err != nil {
			return nil, err
		}
		s = &subject{store: srv.Store(), applyBatch: srv.Store().ApplyBatch, checkpoint: srv.Checkpoint, close: srv.Close, treeOf: storeTree}
	} else {
		cfg := r.memberConfig(0, fs)
		cfg.UnsafeNoSync, cfg.Tracer, cfg.GroupConfig = noSync, tracer, r.group
		ep, err := openEndpoint(w.nw, cfg)
		if err != nil {
			return nil, err
		}
		for _, m := range w.members {
			if err := ep.node.Connect(m.node.Name(), rpc.NewClientDialer(w.nw.Dialer(cfg.Name, m.node.Name()))); err != nil {
				ep.close()
				return nil, err
			}
		}
		s = &subject{store: ep.node.Store(), applyBatch: ep.node.ApplyBatch, checkpoint: ep.node.Checkpoint, close: ep.close, treeOf: replicaTree, node: ep.node}
	}
	closeDB := s.close
	s.close = func() error {
		err := closeDB()
		closeFlight()
		return err
	}
	rc.launch(s.store, s.treeOf)
	return s, nil
}

// --- the workload ---

// overlapPerStage is how many workload updates OverlapCheckpoints commits
// at each checkpoint stage — six per checkpoint, spread across the mirror
// window's three stages.
const overlapPerStage = 2

// drive commits the plan's updates from *k up to stop through s, Batch at a
// time, with a checkpoint after every cpEvery-th update, stopping at the
// first error (the crash, in a crash replay) with *k at the update that
// failed. In overlap mode the checkpoint consumes further updates
// mid-window via the store's stage hook, which is why the index is shared
// rather than a range loop's.
func (r *runner) drive(s *subject, k *int, stop int, rec *recorder, opCount func() int64) error {
	more := func() bool { return *k < stop }
	doOne := func() error { return r.step(k, rec, opCount, s.applyBatch) }
	checkpoint := s.checkpoint
	if r.cfg.OverlapCheckpoints {
		checkpoint = func() error { return overlapCheckpoint(s.store, s.checkpoint, doOne, more) }
	}
	for more() {
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
	if err := apply(r.plan.batch(*k, end)); err != nil {
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

// crashRun is a crash sweep's whole workload on the tortured node, from
// opening its files to closing them; in a crash replay the error is the
// crash itself.
func (r *runner) crashRun(w *world, rec *recorder, rc *readerCheck) error {
	s, err := r.open(w, w.ffs, true, rc)
	if err != nil {
		return err
	}
	k := 0
	err = r.drive(s, &k, len(r.plan.updates), rec, w.ffs.OpCount)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return err
}

// reference runs the workload crash-free on an instrumented fs, recording
// each update's op-index window and returning the total op count N.
func (r *runner) reference() (int64, error) {
	w, err := r.newWorld(0, faultfs.Never)
	if err != nil {
		return 0, err
	}
	defer w.close()
	rec := &recorder{}
	rc := r.newReaderCheck()
	err = r.crashRun(w, rec, rc)
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
	return w.ffs.OpCount(), nil
}

// partitionRun is a partition point's workload on member 0, already open
// as s: the prefix [0, p) commits at quorum under the configured weather, a
// seeded N − W of the other members — as many as the quorum can do without;
// for a pair at W = 1, the only peer — are cut away from everyone else, and
// the window must still be acknowledged against the survivors. Member 0
// stays on the acking side: the whole point of the quorum is that it keeps
// acknowledging through exactly this. It returns how many updates were
// acknowledged.
func (r *runner) partitionRun(p int64, w *world, s *subject) (int, []Violation) {
	k := 0
	if err := r.drive(s, &k, int(p), nil, nil); err != nil {
		return 0, []Violation{r.violation(p, "prefix update %d not quorum-acknowledged: %v", k, err)}
	}
	var cut []string
	for _, mi := range rand.New(rand.NewSource(r.pointSeed(p))).Perm(r.nodes - 1)[:r.nodes-r.quorum] {
		cut = append(cut, w.members[mi].node.Name())
	}
	for _, name := range cut {
		for _, other := range r.group.Members {
			if !slices.Contains(cut, other.Name) {
				w.nw.Partition(name, other.Name)
			}
		}
	}
	if err := r.drive(s, &k, int(p)+r.cfg.Window, nil, nil); err != nil {
		return 0, []Violation{r.violation(p, "update %d not quorum-acknowledged during partition of %v: %v", k, cut, err)}
	}
	return k, nil
}

// --- one point ---

// point replays one point, converting a harness panic into a violation
// rather than killing the whole sweep.
func (r *runner) point(p int64) (out []Violation) {
	defer func() {
		if x := recover(); x != nil {
			out = append(out, r.violation(p, "harness panic: %v", x))
		}
	}()
	return r.replay(p)
}

// replay runs the workload into point p's fault, then holds what survived
// to the one recoverability constraint: an acknowledged update is in every
// recovered prefix, in order.
func (r *runner) replay(p int64) (out []Violation) {
	// The fault. A crash sweep power-fails the tortured node before its fs
	// op p; a partition sweep cuts the network before update p and, with
	// Crash, power-fails victim p mod N at the heal.
	crashAt, victim := p, 0
	if r.cfg.Mode == ModeNet {
		crashAt, victim = faultfs.Never, -1
		if r.cfg.Crash {
			victim = int(p % int64(r.nodes))
		}
	}
	w, err := r.newWorld(p, crashAt)
	if err != nil {
		return []Violation{r.violation(p, "harness: opening the members: %v", err)}
	}
	defer w.close()
	var (
		s                *subject // the tortured node, while it is up
		rc               = r.newReaderCheck()
		acked, attempted int
	)
	defer func() {
		out = append(out, r.readerViolations(p, rc)...)
		if s != nil {
			s.close()
		}
	}()
	if r.cfg.Mode == ModeNet {
		if s, err = r.open(w, w.ffs, true, rc); err != nil {
			return []Violation{r.violation(p, "harness: opening member %s: %v", memberName(0), err)}
		}
		var vs []Violation
		if acked, vs = r.partitionRun(p, w, s); vs != nil {
			return vs
		}
		attempted = acked
	} else {
		_ = r.crashRun(w, nil, rc) // the error is the crash itself
		acked, attempted = r.rec.ackedAt(p), r.rec.attemptedAt(p)
	}
	if victim > 0 {
		// Power-fail a member (possibly one of those cut off): restart it
		// from its durable image. A member acks a push only after its own
		// sync, so it recovers at least what it acknowledged.
		m := w.members[victim-1]
		cfg := r.memberConfig(victim, m.ffs.Snapshot())
		m.close()
		if m.endpoint, err = openEndpoint(w.nw, cfg); err != nil {
			m.endpoint = nil
			return []Violation{r.violation(p, "recovery of crashed member %s failed: %v", cfg.Name, err)}
		}
	}
	if victim == 0 {
		// The tortured node lost power: its synced-only image must hold a
		// decodable flight ring, and recovery through the normal restart
		// path everything the check below asks for.
		frozen := w.ffs.Snapshot()
		if s != nil {
			s.close()
			s = nil
		}
		out = r.checkFlight(p, frozen, acked, attempted)
		out = append(out, r.readerViolations(p, rc)...)
		// Readers also overlap the recovered node's catch-up, so the sweep
		// covers snapshots taken while a freshly recovered database is still
		// absorbing anti-entropy and the rest of the workload. Member 0 only
		// ever applies its own origin's updates — locally or pulled back
		// from a member — so its store sequence keeps indexing the oracle
		// prefixes throughout.
		rc = r.newReaderCheck()
		if s, err = r.open(w, frozen, false, rc); err != nil {
			return append(out, r.violation(p, "recovery failed: %v", err))
		}
		if s.store.Stats().RestartDeltasApplied > 0 {
			r.reg.Counter(deltaRecoveriesCounter).Inc()
		}
	}

	// Heal and clear the weather: convergence is now owed unconditionally,
	// so a residual drop must not masquerade as a correctness failure.
	w.nw.HealAll()
	w.nw.SetProfile(netsim.Profile{})

	// The tortured node holds a prefix within [acked, attempted]. The lower
	// bound is waived only for a node that forfeited local durability
	// behind a quorum that put every acknowledged update on another member
	// first; alone, that is exactly the loss the self-test expects the
	// harness to catch.
	recovered := int(s.store.AppliedSeq())
	if recovered < acked && !(r.cfg.UnsafeNoSync && r.quorum > 1) {
		out = append(out, r.violation(p, "durability: recovered %d updates but %d were acknowledged", recovered, acked))
	}
	if recovered > attempted {
		return append(out, r.violation(p, "phantom: recovered %d updates but only %d were attempted", recovered, attempted))
	}
	if got, err := fingerprint(s.store, s.treeOf); err != nil || got != r.plan.fp[recovered] {
		return append(out, r.violation(p, "atomicity: recovered state diverges from the oracle prefix of %d updates (%v)", recovered, err))
	}

	// So does every other member, and W − 1 of them hold all of the
	// acknowledged prefix. The group must agree on the longest prefix any of
	// them holds, which can run past acked on either side: with the
	// mirror-window checkpoint an update can be durable in the old log yet
	// unacknowledged until the new log's sync, so recovery may surface
	// acked+1 updates; and the flight-recorder write between the log sync
	// and the ack is a crash point, a crash there still letting the
	// already-durable update's push go out.
	upto, holders := recovered, 0
	for _, m := range w.members {
		vec, err := m.node.Vector()
		if err != nil {
			return append(out, r.violation(p, "harness: reading member %s's vector: %v", m.node.Name(), err))
		}
		held := int(vec[memberName(0)])
		if held > attempted {
			return append(out, r.violation(p, "phantom: member %s holds %d updates but only %d were attempted", m.node.Name(), held, attempted))
		}
		if held >= acked {
			holders++
		}
		upto = max(upto, held)
	}
	if holders < r.quorum-1 {
		out = append(out, r.violation(p, "durability: %d of the other members hold the %d acknowledged updates, short of W-1 = %d", holders, acked, r.quorum-1))
	}

	// Converge on it, finish the workload at quorum, and require every
	// member on the full oracle.
	if vs := r.converge(p, w, s, upto, "after the fault"); vs != nil {
		return append(out, vs...)
	}
	for k := upto; k < len(r.plan.updates); k++ {
		if err := s.applyBatch(r.plan.batch(k, k+1)); err != nil {
			return append(out, r.violation(p, "catch-up: update %d not acknowledged after the fault: %v", k, err))
		}
	}
	out = append(out, r.converge(p, w, s, len(r.plan.updates), "after finishing the workload")...)
	if victim != 0 {
		// The tortured node never lost power and recorded the whole point:
		// its durable ring must decode and cover every acknowledged update.
		out = append(out, r.checkFlight(p, w.ffs.Snapshot(), len(r.plan.updates), len(r.plan.updates))...)
	}
	return out
}

// converge runs one anti-entropy round in each direction between the
// tortured node and every other member — the pull restores to a recovered
// node every acknowledged update it lost, even one that ran without local
// log syncs; the reverse pull hands a member whatever committed locally
// but died before its push, or was pushed while the member was cut off —
// and requires the whole group to sit on the oracle prefix of upto updates.
func (r *runner) converge(p int64, w *world, s *subject, upto int, when string) []Violation {
	for _, m := range w.members {
		if err := pull(w.nw, s.node, m.node); err != nil {
			return []Violation{r.violation(p, "catch-up: anti-entropy %s<-%s failed %s: %v", s.node.Name(), m.node.Name(), when, err)}
		}
	}
	if got, err := fingerprint(s.store, s.treeOf); err != nil || got != r.plan.fp[upto] {
		return []Violation{r.violation(p, "catch-up: state diverges from the oracle prefix of %d updates %s (%v)", upto, when, err)}
	}
	for _, m := range w.members {
		if err := pull(w.nw, m.node, s.node); err != nil {
			return []Violation{r.violation(p, "catch-up: anti-entropy %s<-%s failed %s: %v", m.node.Name(), s.node.Name(), when, err)}
		}
		if got, err := fingerprint(m.node.Store(), replicaTree); err != nil || got != r.plan.fp[upto] {
			return []Violation{r.violation(p, "acked-update loss: member %s diverges from the oracle prefix of %d updates %s (%v)", m.node.Name(), upto, when, err)}
		}
	}
	return nil
}

// pull has node to fetch everything it is missing from node from, over a
// connection of its own.
func pull(nw *netsim.Network, to, from *replica.Node) error {
	c := rpc.NewClientDialer(nw.Dialer(to.Name(), from.Name()))
	defer c.Close()
	return to.SyncWith(c)
}

// fingerprint hashes the name tree under a store's current root.
func fingerprint(st *core.Store, treeOf func(root any) *nameserver.Tree) (fp uint64, err error) {
	err = st.View(func(root any) error {
		fp = fingerprintTree(treeOf(root))
		return nil
	})
	return fp, err
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

func (r *runner) readerViolations(p int64, rc *readerCheck) (out []Violation) {
	for _, msg := range rc.finish() {
		out = append(out, r.violation(p, "concurrent reader: %s", msg))
	}
	return out
}

func (rc *readerCheck) fail(format string, args ...any) {
	rc.mu.Lock()
	rc.errs = append(rc.errs, fmt.Sprintf(format, args...))
	rc.mu.Unlock()
}

// launch starts the readers against an open store. treeOf extracts the
// name tree from a snapshot root (bare tree in store mode, replica root's
// tree otherwise).
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

// --- flight recorder ---

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

// checkFlight validates the tortured node's flight recorder on a durable
// image against the acked-prefix oracle. Once any update has been
// acknowledged the ring must be present and decodable, its tail non-empty,
// and its newest commit event within [acked-1, attempted]: the lower bound
// is acked-1 rather than acked because the crash can land on the commit
// event's own slot write, after the update's log sync already made it
// durable (and acknowledgeable).
func (r *runner) checkFlight(p int64, fs vfs.FS, acked, attempted int) []Violation {
	events, err := obs.ReadFlight(fs, flightName)
	if err != nil {
		if acked == 0 {
			return nil // crashed before the ring header was durable
		}
		return []Violation{r.violation(p, "flight: unreadable with %d acked updates: %v", acked, err)}
	}
	if acked == 0 {
		return nil
	}
	if len(events) == 0 {
		return []Violation{r.violation(p, "flight: empty tail with %d acked updates", acked)}
	}
	max := maxCommitSeq(events)
	// With batching the whole batch shares one event, so the crash landing
	// on that event's own ring write can leave the newest surviving event a
	// full batch behind the acknowledged frontier.
	if max < acked-r.cfg.Batch {
		return []Violation{r.violation(p, "flight: newest commit event is seq %d but %d updates were acknowledged", max, acked)}
	}
	if max > attempted {
		return []Violation{r.violation(p, "flight: phantom commit event seq %d with only %d updates attempted", max, attempted)}
	}
	return nil
}
