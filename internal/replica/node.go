package replica

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// Config configures a replica node.
type Config struct {
	// Name identifies this node in update stamps; it must be unique
	// across the replica set and stable across restarts.
	Name string
	// FS holds this node's own checkpoint and log files.
	FS vfs.FS
	// Retain passes through to the store: a catch-up reads its entries from
	// the retained logs and the current one (and archived ones: catchupFor).
	Retain int
	// UnsafeNoSync passes through to the store: the node forfeits local
	// durability and relies on its peers to restore lost updates — the §4
	// replica story, where "we respond to a hard error ... by restoring
	// its data from another replica". The crashtest harness uses it to
	// exercise exactly that recovery path.
	UnsafeNoSync bool
	// MaxDeltaChain and MaxDeltaRatio pass through: the bounds past which
	// a checkpoint writes a full image (0 = the store defaults).
	MaxDeltaChain int
	MaxDeltaRatio float64
	// Obs and Tracer pass through to the store and additionally receive
	// the replication metrics (replica_*) and the replica.push /
	// replica.antientropy / replica.group_repair events.
	Obs    *obs.Registry
	Tracer obs.Tracer
	// Policy bounds each RPC to a member (the zero value means the rpc
	// defaults: 2s budget, exponential backoff with jitter): a stream push
	// of committed updates, and each anti-entropy call — a repair's probe
	// and Push, a Pull, the gate's pulls included. A commit never waits out
	// the budget itself: an eager member's push leaves beside the local
	// sync, a lazy member's behind it, and only the quorum wait is spent on
	// either. A push that exhausts the policy marks the member lagging and
	// hands it to the background repair path. Every call rides on an
	// idempotency token, so a retried push never double-applies even if the
	// first attempt executed and only its response was lost.
	Policy rpc.RetryPolicy
	// GroupConfig is the group this node is a member of: the membership,
	// the write quorum and the anti-entropy interval.
	GroupConfig
}

// Node is one member of a replica group: a name server whose commit is
// replicated (applyAll), the ordered push streams to the other members, the
// quorum wait and the anti-entropy loop. Its enquiries are the Server's,
// answered from the local tree. Each of the Server's updates — Set, Delete,
// Put, Rename, Apply, ApplyBatch, ApplyTraced, the NS service's included —
// is stamped with this node's next sequence number, handed to the members'
// push streams, and acked once the write quorum holds it: at once for
// W = 1 — a member that is down catches up later through anti-entropy —
// and otherwise once it is durable here and W − 1 members have acked it. A
// W > 1 node fails an update with ErrUnreconciled, committing nothing,
// until it has pulled from every member since Open or RestoreFromPeer (see
// reconcile).
type Node struct {
	*nameserver.Server
	name string

	m      nodeMetrics
	tracer obs.Tracer

	policy rpc.RetryPolicy

	// mu keeps local commits out while RestoreFromPeer re-closes the gate:
	// each commit holds it shared from the gate through its store commit.
	mu sync.RWMutex

	group      GroupConfig // validated, defaults filled in
	queueDepth int

	gmu     sync.Mutex
	cond    *sync.Cond
	members []*memberState // connected remote members, in Connect order
	// commitSeq is the highest origin seq handed to the push streams —
	// before its local sync returns — and so what a lagging member must
	// cover before it rejoins them. settled is the highest origin seq whose
	// local commit has returned, durable or lost to the failure that
	// poisoned the store: a pusher counts no ack beyond it. durable is the
	// highest that returned durable: a lazy member is pushed nothing beyond.
	commitSeq uint64
	settled   uint64
	durable   uint64
	closed    bool
	// The gate (see reconcile): owed names the members a W > 1 node has
	// still to take its own stream back from, and gateErr is why the last
	// round of pulls left one owed — nil before the first round since the
	// gate closed.
	owed    []string
	gateErr error

	aeKick chan struct{}
	aeStop chan struct{}
	wg     sync.WaitGroup
}

// nodeMetrics is the replication-layer instrumentation; all fields are
// nil-safe.
type nodeMetrics struct {
	quorumAcks   *obs.Counter   // updates acked at the write quorum
	quorumFails  *obs.Counter   // updates that timed out short of the quorum
	quorumLag    *obs.Histogram // local commit → quorum ack, ns
	pushes       *obs.Counter   // stream pushes attempted
	pushErrors   *obs.Counter   // stream pushes failed (member goes lagging)
	laggards     *obs.Gauge     // members currently lagging
	queueDepth   *obs.Gauge     // entries queued across all member streams
	aeRounds     *obs.Counter   // repair and probe rounds completed
	aeErrors     *obs.Counter   // repair and probe rounds failed
	aeInstalls   *obs.Counter   // full snapshot installs pushed to laggards
	pulls        *obs.Counter   // on-demand pulls (SyncWith) completed
	pullErrors   *obs.Counter   // on-demand pulls failed
	pullApplied  *obs.Counter   // entries applied by on-demand pulls
	fullRestores *obs.Counter   // snapshot installs applied here (logs trimmed or hard error)
	noops        *obs.Counter   // remote entries that took their slot here as no-ops
}

func newNodeMetrics(reg *obs.Registry) nodeMetrics {
	return nodeMetrics{
		quorumAcks:   reg.Counter("replica_group_quorum_acks"),
		quorumFails:  reg.Counter("replica_group_quorum_fails"),
		quorumLag:    reg.Histogram("replica_group_quorum_lag_ns"),
		pushes:       reg.Counter("replica_group_pushes"),
		pushErrors:   reg.Counter("replica_group_push_errors"),
		laggards:     reg.Gauge("replica_group_laggards"),
		queueDepth:   reg.Gauge("replica_group_queue_depth"),
		aeRounds:     reg.Counter("replica_group_ae_rounds"),
		aeErrors:     reg.Counter("replica_group_ae_errors"),
		aeInstalls:   reg.Counter("replica_group_ae_installs"),
		pulls:        reg.Counter("replica_ae_rounds"),
		pullErrors:   reg.Counter("replica_ae_errors"),
		pullApplied:  reg.Counter("replica_ae_applied"),
		fullRestores: reg.Counter("replica_full_restores"),
		noops:        reg.Counter("replica_noop_applies"),
	}
}

// Open recovers (or initializes) a replica node. Remote members attach with
// Connect; pushes to a member start flowing once it is connected.
func Open(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("replica: Config.Name is required")
	}
	if len(cfg.Members) == 0 {
		cfg.Members = []Member{{Name: cfg.Name, Addr: "local"}}
	}
	if err := cfg.Validate(cfg.Name); err != nil {
		return nil, err
	}
	n := &Node{
		name:       cfg.Name,
		m:          newNodeMetrics(cfg.Obs),
		tracer:     cfg.Tracer,
		policy:     cfg.Policy,
		group:      cfg.GroupConfig,
		queueDepth: streamDepth,
		aeKick:     make(chan struct{}, 1),
		aeStop:     make(chan struct{}),
	}
	var keep func(core.Update) bool
	if len(cfg.Members) > 1 {
		keep = n.unshipped
	}
	st, err := core.Open(core.Config{
		FS:            cfg.FS,
		NewRoot:       NewRoot,
		Retain:        cfg.Retain,
		UnsafeNoSync:  cfg.UnsafeNoSync,
		MaxDeltaChain: cfg.MaxDeltaChain,
		MaxDeltaRatio: cfg.MaxDeltaRatio,
		KeepLog:       keep,
		Obs:           cfg.Obs,
		Tracer:        cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	n.Server = nameserver.NewServer(st, n.applyAll)
	n.cond = sync.NewCond(&n.gmu)
	if n.group.QuorumTimeout <= 0 {
		budget := cfg.Policy.Budget
		if budget <= 0 {
			budget = 2 * time.Second
		}
		n.group.QuorumTimeout = budget + budget/2
	}
	if n.group.AntiEntropyEvery <= 0 {
		n.group.AntiEntropyEvery = 100 * time.Millisecond
	}
	// A restarted origin resumes from its own durable slot: repair is done
	// only once a member covers everything committed before the restart.
	// At W > 1 a member may hold more of this origin than that, so the node
	// originates nothing until it has reconciled with every member.
	vec, err := n.Vector()
	if err != nil {
		st.Close()
		return nil, err
	}
	n.commitSeq, n.settled, n.durable = vec[n.name], vec[n.name], vec[n.name]
	n.owed = n.peers()
	if len(cfg.Members) > 1 {
		n.wg.Add(1)
		go n.antiEntropyLoop()
	}
	return n, nil
}

// Name reports the node's name.
func (n *Node) Name() string { return n.name }

// ErrUnreconciled refuses, with nothing logged, a local update at a W > 1
// node that has not pulled from every member since it opened or restored
// from a peer; it wraps why a member did not answer.
var ErrUnreconciled = errors.New("replica: own stream not yet taken back from every member")

// reconcile is the gate a W > 1 node's local update passes holding mu
// shared, before the store's update lock, so no sequence number is assigned
// before it opens: nil once the node has pulled
// from every member since Open or RestoreFromPeer. Any member may hold
// entries of this origin beyond its durable slot — pushed before a sync that
// failed or was cut by a crash, or committed before a restore from a staler
// peer — and reusing their sequence numbers would fork the stream. The
// anti-entropy loop runs rounds of these pulls as members connect, so a
// restarted origin has usually reconciled before its first update; until a
// round has failed, an update runs one itself. After that an update fails
// at once with why, and kicks the loop to try again: a W > 1 origin that
// restarts while a member is unreachable accepts no update until that
// member answers, but no update waits on it for long.
func (n *Node) reconcile() error {
	n.gmu.Lock()
	first := len(n.owed) > 0 && n.gateErr == nil
	n.gmu.Unlock()
	if first {
		n.pullOwed()
	}
	n.gmu.Lock()
	defer n.gmu.Unlock()
	if len(n.owed) == 0 {
		return nil
	}
	n.kickAE()
	why := n.gateErr
	if why == nil {
		why = fmt.Errorf("%v not connected", n.owed)
	}
	return fmt.Errorf("%w: %w", ErrUnreconciled, why)
}

// Reconcile runs the gate by itself, outside any update: one round of
// pulls from the members still owed, reporting whether the node may
// originate.
func (n *Node) Reconcile() error {
	n.gmu.Lock()
	n.gateErr = nil
	n.gmu.Unlock()
	return n.reconcile()
}

// pullOwed is one round of the gate: an untraced pull from every connected
// member still owed, side by side. A member whose pull succeeds is owed no
// more; gateErr records why the others failed. The loop's round and an
// update's may overlap: a pull applies only what the node lacks.
func (n *Node) pullOwed() {
	n.gmu.Lock()
	var due []*memberState
	for _, ms := range n.members {
		if slices.Contains(n.owed, ms.name) {
			due = append(due, ms)
		}
	}
	n.gmu.Unlock()
	if len(due) == 0 {
		return
	}
	errs := make([]error, len(due))
	var wg sync.WaitGroup
	for i, ms := range due {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := n.syncWith(ms.client, obs.SpanContext{}); err != nil {
				errs[i] = fmt.Errorf("%s: %w", ms.name, err)
			}
		}()
	}
	wg.Wait()
	n.gmu.Lock()
	for i, ms := range due {
		if errs[i] == nil {
			n.owed = slices.DeleteFunc(n.owed, func(name string) bool { return name == ms.name })
		}
	}
	n.gateErr = errors.Join(errs...)
	n.gmu.Unlock()
}

// peers names the members a W > 1 node reconciles with; none at W = 1.
func (n *Node) peers() (out []string) {
	if n.group.W == 1 {
		return nil
	}
	for _, m := range n.group.Members {
		if m.Name != n.name {
			out = append(out, m.Name)
		}
	}
	return out
}

// ErrStale marks a bounded-staleness read served by a member whose durable
// frontier has not yet reached the caller's MinSeq floor; the caller should
// catch the member up or redirect to a fresher one.
var ErrStale = errors.New("replica: member frontier below requested MinSeq")

// IsStale reports whether err marks a stale bounded-staleness read from a
// local member. Remote enquiries do not surface staleness as an error at
// all — typed errors would not survive the RPC wire — so Service.Read
// answers with ReadReply.Stale set instead; RPC clients check that flag.
func IsStale(err error) bool {
	return errors.Is(err, ErrStale)
}

// Frontier reports the node's durable read frontier: the sum of its version
// vector as of the latest published (durability-bounded) snapshot. The sum
// is monotone — every apply raises exactly one slot by one — and in the
// single-writer case equals the origin's sequence number; it is the seq a
// bounded-staleness read quotes as "this read reflects everything up to s".
func (n *Node) Frontier() (uint64, error) {
	return n.readSnapshot(nil)
}

// ReadAt serves a bounded-staleness enquiry from this member: it reads name
// from the latest published snapshot and reports the durable frontier seq
// the read reflects. If that frontier is below minSeq the read fails with
// ErrStale (wrapping the observed frontier in its message) and no value —
// the caller catches this member up or redirects.
func (n *Node) ReadAt(name string, minSeq uint64) (value string, frontier uint64, err error) {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return "", 0, err
	}
	var v string
	var lerr error
	frontier, err = n.readSnapshot(func(r *Root) {
		v, lerr = r.Tree.Lookup(parts)
	})
	if err != nil {
		return "", 0, err
	}
	if frontier < minSeq {
		return "", frontier, fmt.Errorf("%w: frontier %d < %d", ErrStale, frontier, minSeq)
	}
	return v, frontier, lerr
}

// readSnapshot runs fn against the lock-free published snapshot (whose seq
// is bounded by the durable frontier) and returns the durable frontier that
// view reflects.
func (n *Node) readSnapshot(fn func(r *Root)) (frontier uint64, err error) {
	sn, err := n.Store().SnapshotAt()
	if err != nil {
		return 0, err
	}
	r, err := rootOf(sn.Root())
	if err != nil {
		return 0, err
	}
	if fn != nil {
		fn(r)
	}
	return vectorSum(r.Vector), nil
}

// Vector snapshots this node's version vector.
func (n *Node) Vector() (map[string]uint64, error) {
	var out map[string]uint64
	err := n.Store().View(func(root any) error {
		r, err := rootOf(root)
		if err != nil {
			return err
		}
		out = copyVector(r.Vector)
		return nil
	})
	return out, err
}

// applyEntries applies remote entries in order, skipping already-applied
// ones and stopping an origin's run at a gap. It reports how many entries
// were newly applied. Under a trace context sc the batch's local commit
// records its phase spans into the pushing side's trace. The entries go
// through one store batch — one log sync however many a coalesced or repair
// push carries — resumed after each refused entry, so every entry is still
// judged against the state its predecessors left. A duplicate or a gap is
// no error (a later round fills the gap); of the other refusals — a
// malformed entry, a store that can no longer commit — the first is
// reported. An entry whose inner update no longer applies here still takes
// its slot (Replicated.Apply): replica_noop_applies and a replica.noop event
// say so.
func (n *Node) applyEntries(entries []Entry, sc obs.SpanContext) (applied int, err error) {
	all := make([]core.Update, len(entries))
	for i, e := range entries {
		all[i] = e.update()
	}
	for us := all; len(us) > 0; {
		k, aerr := n.Store().ApplyBatchTraced(us, sc, nil)
		applied += k
		if aerr == nil {
			break
		}
		if err == nil && !errors.Is(aerr, ErrAlreadyApplied) && !errors.Is(aerr, ErrSequenceGap) {
			err = aerr
		}
		us = us[k+1:]
	}
	for _, u := range all {
		if ru := u.(*Replicated); ru.refused != nil {
			n.m.noops.Inc()
			obs.Emit(n.tracer, obs.Event{Name: "replica.noop", Err: ru.refused, Attrs: []obs.Attr{obs.A("origin", ru.Origin), obs.A("seq", ru.Seq)}})
		}
	}
	return applied, err
}

// --- catch-ups ---

// Catchup is the one message that brings a node up to a peer, both ways: a
// repair's Push and a Pull's answer. It holds either the entries the
// receiver's vector lacks, in (origin, seq) order, or — once the sender's
// logs no longer reach back to them — the sender's published root and no
// entries.
type Catchup struct {
	Entries []Entry
	Root    *Root
}

// errLogsRead ends a catch-up's read of the logs early.
var errLogsRead = errors.New("replica: catch-up read done")

// unshipped is a group node's core.Config.KeepLog: an update it originated
// that a member has not acknowledged since this node opened keeps its log,
// archived, so that an install of a member's root here can re-apply it.
func (n *Node) unshipped(u core.Update) bool {
	ru, ok := u.(*Replicated)
	if !ok || ru.Origin != n.name {
		return false
	}
	n.gmu.Lock()
	defer n.gmu.Unlock()
	return len(n.members) < len(n.group.Members)-1 || slices.ContainsFunc(n.members, func(ms *memberState) bool { return ms.acked < ru.Seq })
}

// catchupFor returns what a holder of vector lacks of this node's published
// view: the entries it lacks, read back from the logs (Store.History) up to
// the view's seq, or the view's root itself when an origin's run no longer
// starts in the logs — or they cannot be read — or vector is nil. Only a
// holder of an update this node lacks is served from the archived logs too
// (unshipped): the root would have it install over that update. The root
// is shipped as published, so the only pickle is the RPC's own: a published
// root is never mutated and the collector keeps it alive.
func (n *Node) catchupFor(vector map[string]uint64) (Catchup, error) {
	sn, err := n.Store().SnapshotAt()
	if err != nil {
		return Catchup{}, err
	}
	r, err := rootOf(sn.Root())
	if err != nil || vector == nil {
		return Catchup{Root: r}, err
	}
	// The usual answer to a probe is "nothing": find that out from the
	// vectors before reading the logs.
	if !ahead(r.Vector, vector) {
		return Catchup{}, nil
	}
	have := copyVector(vector) // each origin's last seq the holder or entries reach
	var entries []Entry
	err = n.Store().History(ahead(vector, r.Vector), func(seq uint64, u core.Update) error {
		ru, ok := u.(*Replicated) // an install carries no entries of its own
		switch {
		case seq > sn.Seq() || ok && ru.Seq > have[ru.Origin]+1:
			return errLogsRead
		case ok && ru.Seq == have[ru.Origin]+1:
			have[ru.Origin] = ru.Seq
			entries = append(entries, ru.entry())
		}
		return nil
	})
	if err != nil && !errors.Is(err, errLogsRead) || ahead(r.Vector, have) {
		return Catchup{Root: r}, nil
	}
	// Each origin's run is in log order, which is its seq order.
	slices.SortStableFunc(entries, func(a, b Entry) int { return strings.Compare(a.Origin, b.Origin) })
	return Catchup{Entries: entries}, nil
}

// ahead reports whether vector v holds some update that w lacks.
func ahead(v, w map[string]uint64) bool {
	for origin, seq := range v {
		if w[origin] < seq {
			return true
		}
	}
	return false
}

// absorb brings a catch-up into this node — its entries through
// applyEntries, its root through installSnapshot — and reports how many
// entries were newly applied. A catch-up carrying both is refused.
func (n *Node) absorb(c *Catchup, sc obs.SpanContext) (applied int, err error) {
	switch {
	case c.Root == nil:
		return n.applyEntries(c.Entries, sc)
	case len(c.Entries) > 0:
		return 0, fmt.Errorf("%w: a catch-up carries a root and %d entries", ErrMalformedEntry, len(c.Entries))
	}
	return 0, n.installSnapshot(c.Root)
}

// SyncWith pulls everything this node is missing from one peer: the entries
// it lacks, or the peer's whole root once the peer's logs no longer reach
// back to them. The background loop pushes; this is the pull a caller
// asks for — a stale Read catching itself up, a harness converging.
func (n *Node) SyncWith(client *rpc.Client) error {
	// An anti-entropy round is its own trace root: the pull and every
	// repaired entry's commit chain under it.
	root := obs.StartRoot(n.tracer, "replica.antientropy")
	start := time.Now()
	applied, full, err := n.syncWith(client, root.Context())
	if root.Active() {
		root.End(err, obs.A("applied", applied), obs.A("full_snapshot", full))
	} else {
		obs.Emit(n.tracer, obs.Event{Name: "replica.antientropy", Dur: time.Since(start), Err: err, Attrs: []obs.Attr{
			obs.A("applied", applied), obs.A("full_snapshot", full),
		}})
	}
	return err
}

// syncWith is one pull from client, counted in the pull metrics.
func (n *Node) syncWith(client *rpc.Client, sc obs.SpanContext) (applied int, full bool, err error) {
	defer func() {
		if err != nil {
			n.m.pullErrors.Inc()
		} else {
			n.m.pulls.Inc()
			n.m.pullApplied.Add(uint64(applied))
		}
	}()
	vec, err := n.Vector()
	if err != nil {
		return 0, false, err
	}
	var c Catchup
	if err := client.CallRetry(sc, "Replica.Pull", &PullArgs{Vector: vec}, &c, n.policy); err != nil {
		return 0, false, err
	}
	applied, err = n.absorb(&c, sc)
	return applied, c.Root != nil, err
}

// ErrInstallRegress refuses a snapshot install that would lower one of this
// node's vector slots: the node holds updates the snapshot lacks — not its
// own, which its logs keep (unshipped) — and its logs no longer reach back
// to them, so they could not be re-applied on top of the snapshot.
var ErrInstallRegress = errors.New("replica: snapshot install would drop applied updates")

// installSnapshot replaces this node's state with a peer's snapshot, keeping
// every update it holds beyond it: they are read back from its own logs, as
// the catch-up the snapshot's holder lacks, and re-propagate from here. An
// update committed between that read and the install leaves the read short,
// and the read is tried again.
func (n *Node) installSnapshot(snap *Root) error {
	for try := 1; ; try++ {
		own, err := n.catchupFor(snap.Vector)
		if err != nil {
			return err
		}
		err = n.Store().Apply(&installSnapshot{Snap: snap, Ahead: own.Entries})
		switch {
		case errors.Is(err, ErrAlreadyApplied):
			return nil
		case errors.Is(err, ErrInstallRegress) && own.Root == nil && try < 3:
			continue
		case err == nil:
			n.m.fullRestores.Inc()
		}
		return err
	}
}

// installSnapshot is an update that replaces the whole root in place; it is
// logged like any other update, so it is itself crash-consistent. An install
// never lowers a vector slot: Ahead holds the entries the node held beyond
// the snapshot's vector, each origin's run continuing the snapshot's slot,
// and they are re-applied on top of the snapshot, as any remote entry is.
// An install they do not bring back up to every slot the node holds is
// refused with ErrInstallRegress: by Verify, and on replay by Apply — an
// install logged by an older build, which took those entries from a history
// window in the root, carries none, and this build cannot recover them.
type installSnapshot struct {
	Snap  *Root
	Ahead []Entry
}

func init() { core.RegisterUpdate(&installSnapshot{}) }

// Verify implements core.Update.
func (u *installSnapshot) Verify(root any) error {
	if u.Snap == nil || u.Snap.Tree == nil {
		return fmt.Errorf("%w: snapshot without a tree", ErrMalformedEntry)
	}
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	// A pull answered against a vector that has since moved on can bring a
	// snapshot holding nothing this node lacks: it is not logged again.
	if !ahead(u.Snap.Vector, r.Vector) {
		return fmt.Errorf("%w: snapshot %v holds nothing beyond %v", ErrAlreadyApplied, u.Snap.Vector, r.Vector)
	}
	return u.regress(r)
}

// regress refuses the install when the snapshot's vector, advanced by Ahead,
// falls short of one of r's slots.
func (u *installSnapshot) regress(r *Root) error {
	to := copyVector(u.Snap.Vector)
	for _, e := range u.Ahead {
		if e.Seq == to[e.Origin]+1 {
			to[e.Origin] = e.Seq
		}
	}
	if ahead(r.Vector, to) {
		return fmt.Errorf("%w: have %v, snapshot %v and %d own entries reach %v", ErrInstallRegress, r.Vector, u.Snap.Vector, len(u.Ahead), to)
	}
	return nil
}

// Apply implements core.Update.
func (u *installSnapshot) Apply(root any) error {
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	if err := u.regress(r); err != nil {
		return err
	}
	r.Tree = u.Snap.Tree
	r.Vector = copyVector(u.Snap.Vector)
	r.Clock = max(r.Clock, u.Snap.Clock)
	for _, e := range u.Ahead {
		if e.Seq != r.Vector[e.Origin]+1 {
			continue
		}
		if err := e.update().Apply(r); err != nil {
			return err
		}
	}
	return nil
}

// RestoreFromPeer rebuilds a replica from a peer's full snapshot — the
// paper's hard-error recovery. Call it on a freshly opened (empty or
// reinitialized) node whose disk was lost; the node loses only updates that
// had not propagated anywhere. The peer may be staler than another member,
// so a W > 1 node reconciles again before it next originates.
func (n *Node) RestoreFromPeer(client *rpc.Client) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.gmu.Lock()
	n.owed, n.gateErr = n.peers(), nil
	n.gmu.Unlock()
	var c Catchup // a nil vector asks for the root
	if err := client.CallRetry(obs.SpanContext{}, "Replica.Pull", &PullArgs{}, &c, n.policy); err != nil {
		return err
	}
	_, err := n.absorb(&c, obs.SpanContext{})
	return err
}

// Close stops the push streams and anti-entropy, closes the member clients,
// wakes any quorum waiter with ErrQuorumUnreachable, and closes the store.
func (n *Node) Close() error {
	n.closeGroup()
	return n.Store().Close()
}

// --- RPC service ---

// Service is the RPC face of a node; register it as "Replica".
type Service struct {
	node *Node
}

// NewService returns the RPC service for a node.
func NewService(n *Node) *Service { return &Service{node: n} }

// PushReply reports how many entries were newly applied, which node
// applied them, and how long the remote apply took — the origin echoes
// Node/ApplyNS into its trace as the remote half of the push. Vector is the
// member's full post-apply version vector: it is the authoritative
// per-origin ack, and quorum commit counts an ack only when the pusher's
// own slot in it covers the pushed entries, because a push that races ahead
// of its predecessors is silently skipped as a sequence gap (applied = 0, no
// error) and must not count. An empty push is a probe: its reply is the
// member's vector.
type PushReply struct {
	Applied int
	Node    string
	ApplyNS int64
	Vector  map[string]uint64
}

// Push brings a catch-up into this node: a stream's entries, a repair's
// suffix or root, or nothing. It takes the rpc layer's span context, so a
// traced push records the remote applies into this node's collector under
// the origin's trace ID.
func (s *Service) Push(args *Catchup, reply *PushReply, sc obs.SpanContext) error {
	start := time.Now()
	applied, err := s.node.absorb(args, sc)
	reply.Applied = applied
	reply.Node = s.node.name
	reply.ApplyNS = int64(time.Since(start))
	vec, verr := s.node.Vector()
	if err == nil {
		// Every answered push carries the member's vector: a probe
		// answered with a nil one would draw the pusher's whole root.
		reply.Vector, err = vec, verr
	}
	return err
}

// PullArgs carries the caller's version vector. A nil Vector asks for the
// whole root, as RestoreFromPeer does; Node.Vector never returns nil, so
// SyncWith's pull is never taken for a restore.
type PullArgs struct {
	Vector map[string]uint64
}

// Pull answers the catch-up a holder of the caller's vector lacks.
func (s *Service) Pull(args *PullArgs, reply *Catchup) (err error) {
	*reply, err = s.node.catchupFor(args.Vector)
	return err
}

// ReadArgs is a bounded-staleness enquiry: the member may answer from its
// own durable frontier as long as that frontier is at least MinSeq.
type ReadArgs struct {
	Name   string
	MinSeq uint64
}

// ReadReply carries the value and the durable frontier seq the read
// reflects — the staleness witness a client uses to ratchet MinSeq. Stale
// is the structured wire form of ErrStale: the member's frontier (echoed
// in Frontier) never reached the caller's MinSeq floor, no value was
// read, and the client should redirect to a fresher member.
type ReadReply struct {
	Value    string
	Frontier uint64
	Node     string
	Stale    bool
}

// Read serves a bounded-staleness enquiry. A member behind the MinSeq
// floor first tries to catch itself up with one anti-entropy round against
// each connected member; if still behind it answers with Stale set (typed
// errors do not survive the RPC wire, so staleness is a reply field, not
// an error) and the client redirects to a fresher member.
func (s *Service) Read(args *ReadArgs, reply *ReadReply) error {
	v, frontier, err := s.node.ReadAt(args.Name, args.MinSeq)
	if IsStale(err) {
		for _, p := range s.node.memberClients() {
			if s.node.SyncWith(p) != nil {
				continue
			}
			if v, frontier, err = s.node.ReadAt(args.Name, args.MinSeq); !IsStale(err) {
				break
			}
		}
	}
	if IsStale(err) {
		reply.Frontier = frontier
		reply.Node = s.node.name
		reply.Stale = true
		return nil
	}
	if err != nil {
		return err
	}
	reply.Value = v
	reply.Frontier = frontier
	reply.Node = s.node.name
	return nil
}

func init() {
	pickle.Register(&Catchup{})
	pickle.Register(&PushReply{})
	pickle.Register(&PullArgs{})
	pickle.Register(&ReadArgs{})
	pickle.Register(&ReadReply{})
}
