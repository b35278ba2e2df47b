package crashtest

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"smalldb/internal/netsim"
	"smalldb/internal/obs"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// ModeNet labels partition-sweep violations.
const ModeNet = "net"

// NetConfig configures a partition sweep: the network analogue of the
// crash-point sweep. The same seeded workload runs once per partition
// point k — replicas are partitioned just before update k, node "a" keeps
// committing (and acknowledging) updates through the partition, the
// partition heals, and anti-entropy must converge both replicas with no
// acknowledged update lost. With Crash set, node "a" additionally loses
// power at the heal point and recovers from its durable image first —
// composing the network torture with the disk torture.
type NetConfig struct {
	// Seed fixes the workload and, combined with the partition point, the
	// per-point network fault schedule; (Seed, point) replays any failure.
	Seed int64
	// Ops is the number of updates in the workload (default 40).
	Ops int
	// Window is how many updates commit on the partitioned node before
	// the heal (default 5).
	Window int
	// From and To bound the partition points, inclusive; To <= 0 means
	// "through the last update that still leaves a full window".
	From, To int
	// Stride replays every Stride-th point (default 1).
	Stride int
	// Shards is the number of points replayed concurrently (default
	// GOMAXPROCS).
	Shards int
	// Crash also power-fails node "a" at the heal point: the acked-in-
	// partition updates must survive the partition plus the crash.
	Crash bool
	// Nodes generalizes the sweep from the hardwired pair to an N-node
	// quorum-commit group (replica.Group). 0 and 2 run the classic pair;
	// N > 2 runs the group sweep: updates commit through the group at
	// write quorum Quorum, each point partitions a seeded minority of
	// non-primary members away from the rest, and — with Crash — the
	// point's rotating victim (point mod N; 0 is the primary) power-fails
	// at the heal point. Quorum-acked updates must survive all of it.
	Nodes int
	// Quorum is the group sweep's write quorum W (0 = majority). The
	// sweep guarantees availability through any minority partition, so W
	// may not exceed the majority — a larger W could not ack the window
	// while the minority is unreachable.
	Quorum int
	// HistoryCap bounds every node's anti-entropy history (0 = 10000, above
	// any sweep's op count). A cap below Ops puts the history trim inside
	// the sweep: a member cut off for longer than the cap can only be
	// repaired by a full snapshot install.
	HistoryCap int
	// Profile is the network weather for the whole run — drops, delays,
	// flaky dials. Retries must absorb it; the sweep clears the weather
	// only for the final convergence check.
	Profile netsim.Profile
	// Logf, when non-nil, receives progress lines.
	Logf func(format string, args ...any)

	// reg collects every node's replication counters across the sweep's
	// points; RunNet reads NetResult.FullRestores from it.
	reg *obs.Registry
}

// NetResult summarizes a partition sweep.
type NetResult struct {
	Seed   int64
	Ops    int
	Window int
	Points int
	// FullRestores counts snapshot installs across all points and nodes: a
	// repair the history could no longer serve (pulled by a pair node,
	// pushed by a group primary). Zero unless HistoryCap is below Window.
	FullRestores uint64
	Violations   []Violation
}

// netPolicy fails pushes fast when the peer is partitioned away — the
// window updates must still be acknowledged promptly — while absorbing the
// profile's transient faults by retry.
var netPolicy = rpc.RetryPolicy{MaxAttempts: 4, Budget: 500 * time.Millisecond, BaseDelay: 500 * time.Microsecond, MaxDelay: 5 * time.Millisecond, PerTry: 200 * time.Millisecond}

// RunNet executes the partition sweep.
func RunNet(cfg NetConfig) (*NetResult, error) {
	if cfg.Ops <= 0 {
		cfg.Ops = 40
	}
	if cfg.Window <= 0 {
		cfg.Window = 5
	}
	if cfg.Window > cfg.Ops {
		return nil, fmt.Errorf("crashtest: window %d exceeds ops %d", cfg.Window, cfg.Ops)
	}
	if cfg.Stride <= 0 {
		cfg.Stride = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	cfg.reg = obs.NewRegistry()
	last := cfg.Ops - cfg.Window
	from := cfg.From
	if from < 0 {
		from = 0
	}
	to := cfg.To
	if to <= 0 || to > last {
		to = last
	}
	var points []int
	for p := from; p <= to; p += cfg.Stride {
		points = append(points, p)
	}

	pointFn := (&netRunner{cfg: cfg, plan: makePlan(cfg.Seed, cfg.Ops)}).point
	if cfg.Nodes > 2 {
		gr, err := newGroupRunner(cfg)
		if err != nil {
			return nil, err
		}
		pointFn = gr.point
	}
	if cfg.Logf != nil {
		cfg.Logf("crashtest: mode=net seed=%d ops=%d window=%d crash=%v nodes=%d quorum=%d points=%d shards=%d",
			cfg.Seed, cfg.Ops, cfg.Window, cfg.Crash, max(cfg.Nodes, 2), cfg.Quorum, len(points), cfg.Shards)
	}

	res := &NetResult{Seed: cfg.Seed, Ops: cfg.Ops, Window: cfg.Window, Points: len(points)}
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
				vs := pointFn(points[i])
				if len(vs) > 0 {
					mu.Lock()
					res.Violations = append(res.Violations, vs...)
					mu.Unlock()
				}
				if d := done.Add(1); d%32 == 0 && cfg.Logf != nil {
					cfg.Logf("crashtest: %d/%d partition points done", d, len(points))
				}
			}
		}()
	}
	wg.Wait()
	res.FullRestores = cfg.reg.Counter(fullRestoresCounter).Value()
	if cfg.Logf != nil {
		cfg.Logf("crashtest: full-restores=%d", res.FullRestores)
	}
	sort.Slice(res.Violations, func(i, j int) bool { return res.Violations[i].Point < res.Violations[j].Point })
	return res, nil
}

// fullRestoresCounter is the replica node's snapshot-install counter.
const fullRestoresCounter = "replica_full_restores"

type netRunner struct {
	cfg  NetConfig
	plan *plan
}

func (r *netRunner) violation(k int, format string, args ...any) Violation {
	return Violation{Seed: r.cfg.Seed, Mode: ModeNet, Point: int64(k), Msg: fmt.Sprintf(format, args...)}
}

// checkNetFlight validates node "a"'s flight ring on a durable image taken
// at a point where ackedTo updates have been acknowledged: decodable,
// non-empty, newest commit event within one of the acked count (the
// recorder syncs each slot, so only a crash landing on the newest slot's
// own write can lose it — and the partition sweep freezes between ops, so
// in practice the newest commit is exactly ackedTo).
func (r *netRunner) checkNetFlight(k int, fs vfs.FS, ackedTo int) []Violation {
	events, err := obs.ReadFlight(fs, flightName)
	if err != nil {
		return []Violation{r.violation(k, "flight: unreadable on the durable image: %v", err)}
	}
	if len(events) == 0 {
		return []Violation{r.violation(k, "flight: empty tail with %d acked updates", ackedTo)}
	}
	if max := maxCommitSeq(events); max < ackedTo-1 || max > ackedTo {
		return []Violation{r.violation(k, "flight: newest commit event is seq %d but %d updates were acknowledged", max, ackedTo)}
	}
	return nil
}

// netNode is one replica endpoint inside a point's private network.
type netNode struct {
	node *replica.Node
	srv  *rpc.Server
	l    *netsim.Listener
}

func openNetNode(nw *netsim.Network, name string, fs vfs.FS, cfg NetConfig, tracer obs.Tracer) (*netNode, error) {
	historyCap := cfg.HistoryCap
	if historyCap <= 0 {
		historyCap = 10000
	}
	node, err := replica.Open(replica.Config{Name: name, FS: fs, HistoryCap: historyCap, PushPolicy: netPolicy, SyncPolicy: netPolicy, Tracer: tracer, Obs: cfg.reg})
	if err != nil {
		return nil, err
	}
	srv := rpc.NewServer()
	if err := srv.Register("Replica", replica.NewService(node)); err != nil {
		node.Close()
		return nil, err
	}
	l, err := nw.Listen(name)
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
	return &netNode{node: node, srv: srv, l: l}, nil
}

func (n *netNode) close() {
	n.srv.Close()
	n.l.Close()
	n.node.Close()
}

// point replays one partition point, converting a harness panic into a
// violation rather than killing the whole sweep.
func (r *netRunner) point(k int) (vs []Violation) {
	defer func() {
		if p := recover(); p != nil {
			vs = append(vs, r.violation(k, "harness panic: %v", p))
		}
	}()
	return r.netPoint(k)
}

func (r *netRunner) netPoint(k int) []Violation {
	// Every point gets its own network whose schedule is fixed by
	// (workload seed, point): the same pair replays the same weather.
	nw := netsim.New(r.cfg.Seed*1000003+int64(k), netsim.Options{Profile: r.cfg.Profile, TraceCap: 256})
	defer nw.Close()

	ffs := faultfs.New(vfs.NewMem(r.cfg.Seed), faultfs.Options{CrashAt: faultfs.Never})
	fl, err := openFlight(ffs)
	if err != nil {
		return []Violation{r.violation(k, "harness: opening flight recorder: %v", err)}
	}
	defer fl.Close()
	a, err := openNetNode(nw, "a", ffs, r.cfg, fl)
	if err != nil {
		return []Violation{r.violation(k, "harness: opening node a: %v", err)}
	}
	defer func() {
		if a != nil {
			a.close()
		}
	}()
	b, err := openNetNode(nw, "b", vfs.NewMem(r.cfg.Seed+1), r.cfg, nil)
	if err != nil {
		return []Violation{r.violation(k, "harness: opening node b: %v", err)}
	}
	defer b.close()
	abClient := rpc.NewClientDialer(nw.Dialer("a", "b"))
	a.node.AddPeer("b", abClient)
	baClient := rpc.NewClientDialer(nw.Dialer("b", "a"))

	// Prefix: updates [0, k) commit on "a" under the configured weather;
	// pushes propagate best-effort, anti-entropy owes nothing yet.
	for i := 0; i < k; i++ {
		if err := a.node.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "prefix update %d not acknowledged: %v", i, err)}
		}
	}

	// Partition, then commit the window on "a". Every one of these Apply
	// returns — they are acknowledged to the client — so losing any of
	// them later is a violation.
	nw.Partition("a", "b")
	ackedTo := k + r.cfg.Window
	for i := k; i < ackedTo; i++ {
		if err := a.node.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "update %d not acknowledged during partition: %v", i, err)}
		}
	}

	if r.cfg.Crash {
		// Power-fail "a": freeze its synced-only durable image and
		// restart from it, as the disk sweep does. The frozen image must
		// hold a decodable flight ring whose newest commit event covers
		// the updates acked during the partition (the recorder syncs each
		// slot before the commit that emitted it is acknowledged).
		frozen := ffs.Snapshot()
		a.close()
		a = nil
		if vs := r.checkNetFlight(k, frozen, ackedTo); vs != nil {
			return vs
		}
		restarted, err := openNetNode(nw, "a", frozen, r.cfg, nil)
		if err != nil {
			return []Violation{r.violation(k, "recovery of the acking node failed: %v", err)}
		}
		a = restarted
		abClient = rpc.NewClientDialer(nw.Dialer("a", "b"))
		a.node.AddPeer("b", abClient)
		vec, err := a.node.Vector()
		if err != nil {
			return []Violation{r.violation(k, "reading recovered vector: %v", err)}
		}
		if recovered := int(vec["a"]); recovered < ackedTo {
			return []Violation{r.violation(k, "durability: recovered %d updates but %d were acknowledged (window acked during partition lost in crash)", recovered, ackedTo)}
		}
	}

	// Heal and clear the weather: convergence is now owed
	// unconditionally, so a residual drop must not masquerade as a
	// correctness failure.
	nw.HealAll()
	nw.SetProfile(netsim.Profile{})
	if vs := r.converge(k, a, b, abClient, baClient, ackedTo, "after partition heal"); vs != nil {
		return vs
	}

	// Finish the workload on "a" and require both replicas to land on the
	// full oracle.
	for i := ackedTo; i < len(r.plan.updates); i++ {
		if err := a.node.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "post-heal update %d not acknowledged: %v", i, err)}
		}
	}
	if vs := r.converge(k, a, b, abClient, baClient, len(r.plan.updates), "after finishing the workload"); vs != nil {
		return vs
	}
	if !r.cfg.Crash {
		// Without a crash "a" records the whole workload; its durable ring
		// must decode and cover every acknowledged update.
		return r.checkNetFlight(k, ffs.Snapshot(), len(r.plan.updates))
	}
	return nil
}

// converge runs anti-entropy both ways and checks both replicas against the
// oracle prefix of upto updates.
func (r *netRunner) converge(k int, a, b *netNode, ab, ba *rpc.Client, upto int, when string) []Violation {
	if err := a.node.SyncWith(ab); err != nil {
		return []Violation{r.violation(k, "anti-entropy a<-b failed %s: %v", when, err)}
	}
	if err := b.node.SyncWith(ba); err != nil {
		return []Violation{r.violation(k, "anti-entropy b<-a failed %s: %v", when, err)}
	}
	want := r.plan.fp[upto]
	if got, err := replicaFingerprint(a.node); err != nil || got != want {
		return []Violation{r.violation(k, "node a diverges from the oracle prefix of %d updates %s (%v)", upto, when, err)}
	}
	if got, err := replicaFingerprint(b.node); err != nil || got != want {
		return []Violation{r.violation(k, "acked-update loss: node b diverges from the oracle prefix of %d updates %s (%v)", upto, when, err)}
	}
	return nil
}
