// The N-node generalization of the partition sweep: the same seeded
// workload commits through a replica.Group at write quorum W instead of a
// hardwired pair. At each partition point a seeded minority of non-primary
// members is cut away from the rest, the window commits — and must ack —
// against the surviving majority, a rotating victim (including the
// primary) optionally power-fails at the heal point, the network heals,
// and every member must converge to the acked-prefix fingerprint oracle
// with zero quorum-acked updates lost.

package crashtest

import (
	"fmt"
	"math/rand"
	"time"

	"smalldb/internal/netsim"
	"smalldb/internal/obs"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// groupRunner replays group partition points.
type groupRunner struct {
	cfg    NetConfig
	plan   *plan
	nodes  int
	quorum int
}

func newGroupRunner(cfg NetConfig) (*groupRunner, error) {
	n := cfg.Nodes
	w := cfg.Quorum
	if w == 0 {
		w = replica.Majority(n)
	}
	if w < 1 || w > n {
		return nil, fmt.Errorf("crashtest: quorum %d out of range for %d nodes", w, n)
	}
	// The sweep cuts away up to (n-1)/2 non-primary members and still
	// demands the window be acknowledged, so the quorum must be
	// satisfiable by what a worst-case minority partition leaves: the
	// majority. (This is also just the sensible operating point — a
	// super-majority W trades exactly this availability away.)
	if w > replica.Majority(n) {
		return nil, fmt.Errorf("crashtest: quorum %d unreachable under a minority partition of %d nodes (max %d)", w, n, replica.Majority(n))
	}
	return &groupRunner{cfg: cfg, plan: makePlan(cfg.Seed, cfg.Ops), nodes: n, quorum: w}, nil
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

// point replays one group partition point, converting a harness panic into
// a violation rather than killing the whole sweep.
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
	// minority choice, and the crash victim — any failure replays.
	pointSeed := r.cfg.Seed*1000003 + int64(k)
	nw := netsim.New(pointSeed, netsim.Options{Profile: r.cfg.Profile, TraceCap: 256})
	defer nw.Close()
	rng := rand.New(rand.NewSource(pointSeed))

	primaryName := memberName(0)
	gcfg := replica.GroupConfig{
		Self:             primaryName,
		W:                r.quorum,
		PushPolicy:       netPolicy,
		SyncPolicy:       netPolicy,
		QuorumTimeout:    10 * time.Second,
		AntiEntropyEvery: 5 * time.Millisecond,
	}
	for i := 0; i < r.nodes; i++ {
		gcfg.Members = append(gcfg.Members, replica.Member{Name: memberName(i), Addr: "netsim"})
	}

	// Primary: faultfs for the durable image, flight recorder for the
	// commit-trail assertion.
	pffs := faultfs.New(vfs.NewMem(r.cfg.Seed), faultfs.Options{CrashAt: faultfs.Never})
	fl, err := openFlight(pffs)
	if err != nil {
		return []Violation{r.violation(k, "harness: opening flight recorder: %v", err)}
	}
	defer fl.Close()
	primary, err := openNetNode(nw, primaryName, pffs, r.cfg, fl)
	if err != nil {
		return []Violation{r.violation(k, "harness: opening primary: %v", err)}
	}
	defer func() {
		if primary != nil {
			primary.close()
		}
	}()

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
		nn, err := openNetNode(nw, name, mffs, r.cfg, nil)
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

	connect := func(g *replica.Group) error {
		for _, m := range members {
			if err := g.Connect(m.name, rpc.NewClientDialer(nw.Dialer(primaryName, m.name))); err != nil {
				return err
			}
		}
		return nil
	}
	group, err := replica.NewGroup(primary.node, gcfg)
	if err != nil {
		return []Violation{r.violation(k, "harness: building group: %v", err)}
	}
	defer func() {
		if group != nil {
			group.Close()
		}
	}()
	if err := connect(group); err != nil {
		return []Violation{r.violation(k, "harness: connecting group: %v", err)}
	}

	// Prefix: updates [0, k) quorum-commit under the configured weather.
	for i := 0; i < k; i++ {
		if err := group.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "prefix update %d not quorum-acknowledged: %v", i, err)}
		}
	}

	// Cut a seeded minority of non-primary members away from everyone
	// else. The primary stays on the majority side — the whole point of
	// quorum commit is that it keeps acknowledging through exactly this.
	minority := rng.Perm(r.nodes - 1)[:(r.nodes-1)/2]
	cut := make(map[string]bool, len(minority))
	for _, mi := range minority {
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
		if err := group.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "update %d not quorum-acknowledged during minority partition of %v: %v", i, keys(cut), err)}
		}
	}

	if r.cfg.Crash {
		victim := k % r.nodes
		if victim == 0 {
			// Power-fail the primary: its synced-only image must hold a
			// decodable flight ring and every acknowledged update — the
			// group acks only after the local commit's sync.
			frozen := pffs.Snapshot()
			group.Close()
			group = nil
			primary.close()
			primary = nil
			if vs := r.checkGroupFlight(k, frozen, ackedTo); vs != nil {
				return vs
			}
			restarted, err := openNetNode(nw, primaryName, frozen, r.cfg, nil)
			if err != nil {
				return []Violation{r.violation(k, "recovery of the crashed primary failed: %v", err)}
			}
			primary = restarted
			vec, err := primary.node.Vector()
			if err != nil {
				return []Violation{r.violation(k, "reading recovered primary vector: %v", err)}
			}
			if recovered := int(vec[primaryName]); recovered < ackedTo {
				return []Violation{r.violation(k, "durability: primary recovered %d updates but %d were quorum-acknowledged", recovered, ackedTo)}
			}
			group, err = replica.NewGroup(primary.node, gcfg)
			if err != nil {
				return []Violation{r.violation(k, "harness: rebuilding group after primary crash: %v", err)}
			}
			if err := connect(group); err != nil {
				return []Violation{r.violation(k, "harness: reconnecting group after primary crash: %v", err)}
			}
		} else {
			// Power-fail a member (possibly one of the partitioned
			// minority): freeze its durable image and restart from it.
			// Member disks hold only asynchronously pushed state, so the
			// recovered prefix is whatever had synced — convergence below
			// is the assertion that none of it matters durably.
			m := members[victim-1]
			frozen := m.ffs.Snapshot()
			m.nn.close()
			restarted, err := openNetNode(nw, m.name, frozen, r.cfg, nil)
			if err != nil {
				m.nn = nil
				return []Violation{r.violation(k, "recovery of crashed member %s failed: %v", m.name, err)}
			}
			m.nn = restarted
			m.pull = rpc.NewClientDialer(nw.Dialer(m.name, primaryName))
		}
	}

	// Heal, clear the weather, converge everyone on the acked prefix.
	nw.HealAll()
	nw.SetProfile(netsim.Profile{})
	if vs := r.converge(k, primary, members, ackedTo, "after partition heal"); vs != nil {
		return vs
	}

	// Finish the workload at quorum and require the whole group to land
	// on the full oracle.
	for i := ackedTo; i < len(r.plan.updates); i++ {
		if err := group.Apply(r.plan.updates[i]); err != nil {
			return []Violation{r.violation(k, "post-heal update %d not quorum-acknowledged: %v", i, err)}
		}
	}
	if vs := r.converge(k, primary, members, len(r.plan.updates), "after finishing the workload"); vs != nil {
		return vs
	}
	if !r.cfg.Crash || k%r.nodes != 0 {
		// The primary survived the whole point: its durable ring must
		// decode and cover every acknowledged update.
		return r.checkGroupFlight(k, pffs.Snapshot(), len(r.plan.updates))
	}
	return nil
}

// checkGroupFlight mirrors checkNetFlight for the group sweep.
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
