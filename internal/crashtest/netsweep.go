package crashtest

import (
	"fmt"
	"math/rand"
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
// crash-point sweep. The same seeded workload runs once per partition point
// k — the updates commit through the primary of an N-node replica group at
// write quorum W, just before update k a seeded N − W non-primary members
// are cut away from the rest, the window commits (and must ack) against the
// survivors, the partition heals, and every member must converge with no
// acknowledged update lost. With Crash set, the point's rotating victim
// additionally loses power at the heal point and recovers from its durable
// image first — composing the network torture with the disk torture.
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
	// Crash also power-fails the point's victim (point mod N; 0 is the
	// primary) at the heal point: the updates acked during the partition
	// must survive the partition plus the crash.
	Crash bool
	// Nodes is the group size N; 0 and 2 run a pair.
	Nodes int
	// Quorum is the write quorum W (0 = ⌈N/2⌉: 1 for a pair, the majority
	// for odd N). Each point cuts N − W members, the most the window can
	// still be acknowledged without.
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
	// repair the history could no longer serve (pushed by the primary's
	// repair loop or pulled by the convergence check). Zero unless
	// HistoryCap is below Window.
	FullRestores uint64
	Violations   []Violation
}

// netPolicy fails pushes fast when the member is partitioned away — repair
// must get to the next member promptly — while absorbing the profile's
// transient faults by retry.
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

	gr := &groupRunner{cfg: cfg, plan: makePlan(cfg.Seed, cfg.Ops), nodes: max(cfg.Nodes, 2), quorum: cfg.Quorum}
	if gr.quorum == 0 {
		gr.quorum = (gr.nodes + 1) / 2
	}
	if gr.quorum < 1 || gr.quorum > gr.nodes {
		return nil, fmt.Errorf("crashtest: quorum %d out of range for %d nodes", gr.quorum, gr.nodes)
	}
	if cfg.Logf != nil {
		cfg.Logf("crashtest: mode=net seed=%d ops=%d window=%d crash=%v nodes=%d quorum=%d points=%d shards=%d",
			cfg.Seed, cfg.Ops, cfg.Window, cfg.Crash, gr.nodes, gr.quorum, len(points), cfg.Shards)
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
				vs := gr.point(points[i])
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

// netNode is one replica endpoint inside a point's private network; group
// is zero for a member that originates nothing.
type netNode struct {
	node *replica.Node
	srv  *rpc.Server
	l    *netsim.Listener
}

func openNetNode(nw *netsim.Network, name string, fs vfs.FS, cfg NetConfig, group replica.GroupConfig, tracer obs.Tracer) (*netNode, error) {
	historyCap := cfg.HistoryCap
	if historyCap <= 0 {
		historyCap = 10000
	}
	node, err := replica.Open(replica.Config{Name: name, FS: fs, HistoryCap: historyCap, PushPolicy: netPolicy, SyncPolicy: netPolicy, Tracer: tracer, Obs: cfg.reg, GroupConfig: group})
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

// groupRunner replays partition points against an N-node group at write
// quorum W.
type groupRunner struct {
	cfg    NetConfig
	plan   *plan
	nodes  int
	quorum int
}

func (r *groupRunner) violation(k int, format string, args ...any) Violation {
	return Violation{Seed: r.cfg.Seed, Mode: ModeNet, Point: int64(k), Msg: fmt.Sprintf(format, args...)}
}

// member is one non-primary group member inside a point's network.
type member struct {
	name string
	ffs  *faultfs.FS
	nn   *netNode
	pull *rpc.Client // member -> primary, for convergence pulls
}

func memberName(i int) string { return fmt.Sprintf("n%d", i) }

// point replays one partition point, converting a harness panic into a
// violation rather than killing the whole sweep.
func (r *groupRunner) point(k int) (vs []Violation) {
	defer func() {
		if p := recover(); p != nil {
			vs = append(vs, r.violation(k, "harness panic: %v", p))
		}
	}()
	return r.groupPoint(k)
}

func (r *groupRunner) groupPoint(k int) []Violation {
	// One private network per point; (seed, point) fixes the weather, the
	// choice of members to cut, and the crash victim — any failure replays.
	pointSeed := r.cfg.Seed*1000003 + int64(k)
	nw := netsim.New(pointSeed, netsim.Options{Profile: r.cfg.Profile, TraceCap: 256})
	defer nw.Close()
	rng := rand.New(rand.NewSource(pointSeed))

	primaryName := memberName(0)
	gcfg := replica.GroupConfig{
		W:                r.quorum,
		QuorumTimeout:    10 * time.Second,
		AntiEntropyEvery: 5 * time.Millisecond,
	}
	for i := 0; i < r.nodes; i++ {
		gcfg.Members = append(gcfg.Members, replica.Member{Name: memberName(i), Addr: "netsim"})
	}

	members := make([]*member, 0, r.nodes-1)
	defer func() {
		for _, m := range members {
			if m.nn != nil {
				m.nn.close()
			}
		}
	}()
	for i := 1; i < r.nodes; i++ {
		name := memberName(i)
		mffs := faultfs.New(vfs.NewMem(r.cfg.Seed+int64(i)), faultfs.Options{CrashAt: faultfs.Never})
		nn, err := openNetNode(nw, name, mffs, r.cfg, replica.GroupConfig{}, nil)
		if err != nil {
			return []Violation{r.violation(k, "harness: opening member %s: %v", name, err)}
		}
		members = append(members, &member{
			name: name,
			ffs:  mffs,
			nn:   nn,
			pull: rpc.NewClientDialer(nw.Dialer(name, primaryName)),
		})
	}

	// Primary: faultfs for the durable image, flight recorder for the
	// commit-trail assertion.
	pffs := faultfs.New(vfs.NewMem(r.cfg.Seed), faultfs.Options{CrashAt: faultfs.Never})
	fl, err := openFlight(pffs)
	if err != nil {
		return []Violation{r.violation(k, "harness: opening flight recorder: %v", err)}
	}
	defer fl.Close()
	openPrimary := func(fs vfs.FS, tracer obs.Tracer) (*netNode, error) {
		nn, err := openNetNode(nw, primaryName, fs, r.cfg, gcfg, tracer)
		if err != nil {
			return nil, err
		}
		for _, m := range members {
			if err := nn.node.Connect(m.name, rpc.NewClientDialer(nw.Dialer(primaryName, m.name))); err != nil {
				nn.close()
				return nil, err
			}
		}
		return nn, nil
	}
	primary, err := openPrimary(pffs, fl)
	if err != nil {
		return []Violation{r.violation(k, "harness: opening primary: %v", err)}
	}
	defer func() {
		if primary != nil {
			primary.close()
		}
	}()

	// Prefix: updates [0, k) quorum-commit under the configured weather.
	for i := 0; i < k; i++ {
		if err := primary.node.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "prefix update %d not quorum-acknowledged: %v", i, err)}
		}
	}

	// Cut a seeded N − W non-primary members away from everyone else — as
	// many as the quorum can do without; for a pair at W = 1 that is the
	// only peer. The primary stays on the acking side: the whole point of
	// the quorum is that it keeps acknowledging through exactly this.
	cut := make(map[string]bool, r.nodes-r.quorum)
	for _, mi := range rng.Perm(r.nodes - 1)[:r.nodes-r.quorum] {
		cut[members[mi].name] = true
	}
	for name := range cut {
		nw.Partition(name, primaryName)
		for _, m := range members {
			if !cut[m.name] {
				nw.Partition(name, m.name)
			}
		}
	}

	// The window must be acknowledged at quorum W against the survivors.
	ackedTo := k + r.cfg.Window
	for i := k; i < ackedTo; i++ {
		if err := primary.node.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "update %d not quorum-acknowledged during partition of %v: %v", i, keys(cut), err)}
		}
	}

	victim := -1
	if r.cfg.Crash {
		victim = k % r.nodes
	}
	if victim == 0 {
		// Power-fail the primary: its synced-only image must hold a
		// decodable flight ring and every acknowledged update — an update
		// is acked only after the local commit's sync.
		frozen := pffs.Snapshot()
		primary.close()
		primary = nil
		if vs := r.checkGroupFlight(k, frozen, ackedTo); vs != nil {
			return vs
		}
		if primary, err = openPrimary(frozen, nil); err != nil {
			return []Violation{r.violation(k, "recovery of the crashed primary failed: %v", err)}
		}
		vec, err := primary.node.Vector()
		if err != nil {
			return []Violation{r.violation(k, "reading recovered primary vector: %v", err)}
		}
		if recovered := int(vec[primaryName]); recovered < ackedTo {
			return []Violation{r.violation(k, "durability: primary recovered %d updates but %d were quorum-acknowledged", recovered, ackedTo)}
		}
	} else if victim > 0 {
		// Power-fail a member (possibly one of those cut off): freeze its
		// durable image and restart from it. Member disks hold only
		// asynchronously pushed state, so the recovered prefix is whatever
		// had synced — convergence below is the assertion that none of it
		// matters durably.
		m := members[victim-1]
		frozen := m.ffs.Snapshot()
		m.nn.close()
		if m.nn, err = openNetNode(nw, m.name, frozen, r.cfg, replica.GroupConfig{}, nil); err != nil {
			m.nn = nil
			return []Violation{r.violation(k, "recovery of crashed member %s failed: %v", m.name, err)}
		}
		m.pull = rpc.NewClientDialer(nw.Dialer(m.name, primaryName))
	}

	// Heal and clear the weather: convergence is now owed unconditionally,
	// so a residual drop must not masquerade as a correctness failure.
	nw.HealAll()
	nw.SetProfile(netsim.Profile{})
	if vs := r.converge(k, primary, members, ackedTo, "after partition heal"); vs != nil {
		return vs
	}

	// Finish the workload at quorum and require the whole group to land
	// on the full oracle.
	for i := ackedTo; i < len(r.plan.updates); i++ {
		if err := primary.node.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "post-heal update %d not quorum-acknowledged: %v", i, err)}
		}
	}
	if vs := r.converge(k, primary, members, len(r.plan.updates), "after finishing the workload"); vs != nil {
		return vs
	}
	if victim != 0 {
		// The primary survived the whole point: its durable ring must
		// decode and cover every acknowledged update.
		return r.checkGroupFlight(k, pffs.Snapshot(), len(r.plan.updates))
	}
	return nil
}

// checkGroupFlight validates the primary's flight ring on a durable image
// taken at a point where ackedTo updates have been acknowledged: decodable,
// non-empty, newest commit event within one of the acked count (the
// recorder syncs each slot, so only a crash landing on the newest slot's
// own write can lose it — and the partition sweep freezes between ops, so
// in practice the newest commit is exactly ackedTo).
func (r *groupRunner) checkGroupFlight(k int, fs vfs.FS, ackedTo int) []Violation {
	events, err := obs.ReadFlight(fs, flightName)
	if err != nil {
		return []Violation{r.violation(k, "flight: unreadable on the primary's durable image: %v", err)}
	}
	if len(events) == 0 {
		return []Violation{r.violation(k, "flight: empty tail with %d acked updates", ackedTo)}
	}
	if max := maxCommitSeq(events); max < ackedTo-1 || max > ackedTo {
		return []Violation{r.violation(k, "flight: newest commit event is seq %d but %d updates were quorum-acknowledged", max, ackedTo)}
	}
	return nil
}

// converge pulls every member up to the primary and checks the whole group
// against the oracle prefix of upto updates.
func (r *groupRunner) converge(k int, primary *netNode, members []*member, upto int, when string) []Violation {
	want := r.plan.fp[upto]
	if got, err := replicaFingerprint(primary.node); err != nil || got != want {
		return []Violation{r.violation(k, "primary diverges from the oracle prefix of %d updates %s (%v)", upto, when, err)}
	}
	for _, m := range members {
		if err := m.nn.node.SyncWith(m.pull); err != nil {
			return []Violation{r.violation(k, "anti-entropy %s<-primary failed %s: %v", m.name, when, err)}
		}
		if got, err := replicaFingerprint(m.nn.node); err != nil || got != want {
			return []Violation{r.violation(k, "acked-update loss: member %s diverges from the oracle prefix of %d updates %s (%v)", m.name, upto, when, err)}
		}
	}
	return nil
}

// keys lists a set's members, for violation messages.
func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
