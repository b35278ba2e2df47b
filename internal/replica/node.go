package replica

import (
	"errors"
	"fmt"
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
	// HistoryCap bounds the anti-entropy history kept in the database.
	HistoryCap int
	// Retain and the checkpoint policies pass through to the store.
	Retain        int
	MaxLogBytes   int64
	MaxLogEntries int64
	// UnsafeNoSync passes through to the store: the node forfeits local
	// durability and relies on its peers to restore lost updates — the §4
	// replica story, where "we respond to a hard error ... by restoring
	// its data from another replica". The crashtest harness uses it to
	// exercise exactly that recovery path.
	UnsafeNoSync bool
	// ReplayWorkers passes through to the store's restart decode
	// pipeline (0 = auto, 1 = sequential).
	ReplayWorkers int
	// LogShards passes through: the node's redo-log stream count (0 and 1
	// are the single stream).
	LogShards int
	// Deterministic passes through: epoch seals sync their streams one at
	// a time and a due compaction runs inside the checkpoint that tripped
	// it (the crash-sweep determinism knob).
	Deterministic bool
	// MaxDeltaChain and MaxDeltaRatio pass through: the delta-chain
	// compaction thresholds (0 = the store defaults).
	MaxDeltaChain int
	MaxDeltaRatio float64
	// Obs and Tracer pass through to the store and additionally receive
	// the replication metrics (replica_*) and the replica.push /
	// replica.antientropy / replica.group_repair events.
	Obs    *obs.Registry
	Tracer obs.Tracer
	// PushPolicy bounds each stream push of committed updates to a member
	// (the zero value means the rpc defaults: 2s budget, exponential
	// backoff with jitter). The push runs behind the commit, so the budget
	// is never spent by Apply itself — only the quorum wait is, for W > 1.
	// A push that exhausts its policy marks the member lagging and hands it
	// to the background repair path.
	PushPolicy rpc.RetryPolicy
	// SyncPolicy bounds each anti-entropy RPC (Vector, Push, Install, Pull,
	// Snapshot) the same way. Both policies ride on idempotency tokens, so
	// a retried push never double-applies even if the first attempt
	// executed and only its response was lost.
	SyncPolicy rpc.RetryPolicy
	// GroupConfig is the group this node is a member of: the membership,
	// the write quorum and the anti-entropy interval.
	GroupConfig
}

// Node is one member of a replica group: a full store, the ordered push
// streams to the other members, the quorum wait and the anti-entropy loop.
type Node struct {
	name  string
	store *core.Store

	m      nodeMetrics
	tracer obs.Tracer

	pushPolicy rpc.RetryPolicy
	syncPolicy rpc.RetryPolicy

	mu sync.Mutex // serializes local sequence assignment

	group      GroupConfig // validated, defaults filled in
	queueDepth int

	gmu       sync.Mutex
	cond      *sync.Cond
	members   []*memberState // connected remote members, in Connect order
	commitSeq uint64         // highest locally committed origin seq
	closed    bool

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
	fullRestores *obs.Counter   // snapshot installs applied here (history trimmed or hard error)
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
	st, err := core.Open(core.Config{
		FS:            cfg.FS,
		NewRoot:       NewRootWithCap(cfg.HistoryCap),
		Retain:        cfg.Retain,
		MaxLogBytes:   cfg.MaxLogBytes,
		MaxLogEntries: cfg.MaxLogEntries,
		UnsafeNoSync:  cfg.UnsafeNoSync,
		ReplayWorkers: cfg.ReplayWorkers,
		LogShards:     cfg.LogShards,
		Deterministic: cfg.Deterministic,
		MaxDeltaChain: cfg.MaxDeltaChain,
		MaxDeltaRatio: cfg.MaxDeltaRatio,
		Obs:           cfg.Obs,
		Tracer:        cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	n := &Node{
		name:       cfg.Name,
		store:      st,
		m:          newNodeMetrics(cfg.Obs),
		tracer:     cfg.Tracer,
		pushPolicy: cfg.PushPolicy,
		syncPolicy: cfg.SyncPolicy,
		group:      cfg.GroupConfig,
		queueDepth: streamDepth,
		aeKick:     make(chan struct{}, 1),
		aeStop:     make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.gmu)
	if n.group.QuorumTimeout <= 0 {
		budget := cfg.PushPolicy.Budget
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
	vec, err := n.Vector()
	if err != nil {
		st.Close()
		return nil, err
	}
	n.commitSeq = vec[n.name]
	if len(cfg.Members) > 1 {
		n.wg.Add(1)
		go n.antiEntropyLoop()
	}
	return n, nil
}

// Name reports the node's name.
func (n *Node) Name() string { return n.name }

// Store exposes the underlying store.
func (n *Node) Store() *core.Store { return n.store }

// --- local operations ---

// Apply commits an inner update locally (stamped with this node's next
// sequence number), hands it to every member's push stream, and acks once
// the write quorum holds it: at once for W = 1 — a member that is down
// catches up later through anti-entropy — and after W - 1 member acks
// otherwise.
func (n *Node) Apply(inner core.Update) error {
	return n.ApplyTraced(inner, obs.SpanContext{})
}

// ApplyTraced is Apply under a trace context: the local commit's phase
// spans, the per-member push (with its rpc attempts), and the member's
// remote apply all land in the caller's trace.
func (n *Node) ApplyTraced(inner core.Update, sc obs.SpanContext) error {
	return n.applyAll([]core.Update{inner}, sc)
}

// ApplyBatch commits a batch of local updates through one store batch —
// one epoch barrier — stamping each with consecutive local sequence
// numbers; the whole batch rides each member's stream as one push.
func (n *Node) ApplyBatch(inners []core.Update) error {
	return n.applyAll(inners, obs.SpanContext{})
}

// commitLocal commits a batch of inner updates locally — stamping each
// with this node's consecutive sequence numbers and Lamport stamps — without
// pushing to any member. It returns the committed entries; on a batch error
// the applied prefix is returned alongside the error (core.Store.ApplyBatch
// prefix semantics). Only that prefix may be pushed: anti-entropy would
// otherwise resurrect updates this node never committed.
func (n *Node) commitLocal(inners []core.Update, sc obs.SpanContext) ([]Entry, error) {
	if len(inners) == 0 {
		return nil, nil
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	var seq, stamp uint64
	err := n.store.View(func(root any) error {
		r, err := rootOf(root)
		if err != nil {
			return err
		}
		seq = r.Vector[n.name]
		stamp = r.Clock
		return nil
	})
	if err != nil {
		return nil, err
	}
	entries := make([]Entry, len(inners))
	us := make([]core.Update, len(inners))
	for i, inner := range inners {
		entries[i] = Entry{Origin: n.name, Seq: seq + uint64(i) + 1, Stamp: stamp + uint64(i) + 1, Inner: inner}
		us[i] = entries[i].update()
	}
	committedN, batchErr := n.store.ApplyBatchTraced(us, sc)
	// Capacity-limited: every member's pusher appends to its own copy.
	return entries[:committedN:committedN], batchErr
}

// Set, Delete and Lookup are name-tree conveniences over Apply/View.

// Set binds value to name in the replicated tree.
func (n *Node) Set(name, value string) error {
	return n.SetTraced(name, value, obs.SpanContext{})
}

// SetTraced is Set under a trace context.
func (n *Node) SetTraced(name, value string, sc obs.SpanContext) error {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return err
	}
	return n.ApplyTraced(&nameserver.SetValue{Path: parts, Value: value}, sc)
}

// Delete removes name and its subtree.
func (n *Node) Delete(name string) error {
	return n.DeleteTraced(name, obs.SpanContext{})
}

// DeleteTraced is Delete under a trace context.
func (n *Node) DeleteTraced(name string, sc obs.SpanContext) error {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return err
	}
	return n.ApplyTraced(&nameserver.DeleteSubtree{Path: parts}, sc)
}

// Lookup, List and Enumerate are nameserver's tree enquiries against the
// replicated tree.

// Lookup reads the value bound to name.
func (n *Node) Lookup(name string) (string, error) {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return "", err
	}
	var out string
	err = n.viewTree(func(t *nameserver.Tree) (err error) {
		out, err = t.Lookup(parts)
		return err
	})
	return out, err
}

// List returns the sorted child labels under name.
func (n *Node) List(name string) ([]string, error) {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return nil, err
	}
	var out []string
	err = n.viewTree(func(t *nameserver.Tree) (err error) {
		out, err = t.List(parts)
		return err
	})
	return out, err
}

// Enumerate calls fn for every (name, value) pair at or below name, in
// depth-first sorted order.
func (n *Node) Enumerate(name string, fn func(name, value string) error) error {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return err
	}
	return n.viewTree(func(t *nameserver.Tree) error { return t.Enumerate(parts, fn) })
}

func (n *Node) viewTree(fn func(t *nameserver.Tree) error) error {
	return n.store.View(func(root any) error {
		r, err := rootOf(root)
		if err != nil {
			return err
		}
		return fn(r.Tree)
	})
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
	_, f, err := n.readSnapshot(nil)
	return f, err
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
	_, frontier, err = n.readSnapshot(func(r *Root) {
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

// readSnapshot runs fn against a consistent root view and returns the
// durable frontier that view reflects. It prefers the lock-free published
// snapshot (whose seq is bounded by the durable frontier); stores without
// versioned roots fall back to a locked View.
func (n *Node) readSnapshot(fn func(r *Root)) (seq uint64, frontier uint64, err error) {
	if sn, serr := n.store.SnapshotAt(); serr == nil {
		defer sn.Release()
		r, rerr := rootOf(sn.Root())
		if rerr != nil {
			return 0, 0, rerr
		}
		if fn != nil {
			fn(r)
		}
		return sn.Seq(), vectorSum(r.Vector), nil
	}
	err = n.store.View(func(root any) error {
		r, rerr := rootOf(root)
		if rerr != nil {
			return rerr
		}
		frontier = vectorSum(r.Vector)
		if fn != nil {
			fn(r)
		}
		return nil
	})
	return frontier, frontier, err
}

// Vector snapshots this node's version vector.
func (n *Node) Vector() (map[string]uint64, error) {
	var out map[string]uint64
	err := n.store.View(func(root any) error {
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
// were newly applied.
func (n *Node) applyEntries(entries []Entry) (applied int, err error) {
	return n.applyEntriesTraced(entries, obs.SpanContext{})
}

// applyEntriesTraced is applyEntries under a trace context: the batch's
// local commit records its phase spans into the pushing side's trace. The
// entries go through one store batch — one log sync however many a
// coalesced or repair push carries — resumed after each refused entry, so
// every entry is still judged against the state its predecessors left. Of
// several unclassified refusals the first is reported.
func (n *Node) applyEntriesTraced(entries []Entry, sc obs.SpanContext) (applied int, err error) {
	us := make([]core.Update, len(entries))
	for i, e := range entries {
		us[i] = e.update()
	}
	for len(us) > 0 {
		k, aerr := n.store.ApplyBatchTraced(us, sc)
		applied += k
		if aerr == nil {
			break
		}
		switch {
		case errors.Is(aerr, ErrAlreadyApplied):
			// fine: duplicate delivery
		case errors.Is(aerr, ErrSequenceGap):
			// later anti-entropy round will fill it
		default:
			// An inner precondition failure against our state: the
			// update was valid where it committed, so forced convergence
			// is impossible for this entry; skip it but surface the
			// error — the first one; a store that can no longer commit
			// lands here too, once per remaining entry.
			if err == nil {
				err = aerr
			}
		}
		us = us[k+1:]
	}
	return applied, err
}

// --- on-demand pulls ---

// SyncWith pulls everything this node is missing from one peer. If the
// peer's history has been trimmed past what we need, it falls back to a
// full snapshot transfer. The background loop pushes; this is the pull a
// caller asks for — a stale Read catching itself up, a harness converging.
func (n *Node) SyncWith(client *rpc.Client) error {
	// An anti-entropy round is its own trace root: the pull, any snapshot
	// transfer, and every repaired entry's commit chain under it.
	root := obs.StartRoot(n.tracer, "replica.antientropy")
	start := time.Now()
	applied, full, err := n.syncWith(client, root.Context())
	if err != nil {
		n.m.pullErrors.Inc()
	} else {
		n.m.pulls.Inc()
		n.m.pullApplied.Add(uint64(applied))
	}
	if root.Active() {
		root.End(err, obs.A("applied", applied), obs.A("full_snapshot", full))
	} else {
		obs.Emit(n.tracer, obs.Event{Name: "replica.antientropy", Dur: time.Since(start), Err: err, Attrs: []obs.Attr{
			obs.A("applied", applied), obs.A("full_snapshot", full),
		}})
	}
	return err
}

func (n *Node) syncWith(client *rpc.Client, sc obs.SpanContext) (applied int, full bool, err error) {
	vec, err := n.Vector()
	if err != nil {
		return 0, false, err
	}
	var reply PullReply
	if err := client.CallRetryTraced(sc, "Replica.Pull", &PullArgs{Vector: vec}, &reply, n.syncPolicy); err != nil {
		return 0, false, err
	}
	if reply.NeedFull {
		var snap SnapshotReply
		if err := client.CallRetryTraced(sc, "Replica.Snapshot", &SnapshotArgs{}, &snap, n.syncPolicy); err != nil {
			return 0, true, err
		}
		return 0, true, n.installSnapshot(snap.Root)
	}
	applied, err = n.applyEntriesTraced(reply.Entries, sc)
	return applied, false, err
}

// ErrInstallRegress refuses a snapshot install that would lower one of this
// node's vector slots: the node holds updates the snapshot lacks and its own
// history no longer reaches back to them, so they could not be re-applied on
// top of the snapshot.
var ErrInstallRegress = errors.New("replica: snapshot install would drop applied updates")

// installSnapshot replaces this node's state with a peer's snapshot, keeping
// every update we hold beyond it (they will re-propagate).
func (n *Node) installSnapshot(snap *Root) error {
	if snap == nil {
		return fmt.Errorf("replica: nil snapshot")
	}
	err := n.store.Apply(&installSnapshot{Snap: snap})
	if err == nil {
		n.m.fullRestores.Inc()
	}
	return err
}

// installSnapshot is an update that replaces the whole root in place; it is
// logged like any other update, so it is itself crash-consistent. An install
// never lowers a vector slot: the entries the node holds beyond the
// snapshot's vector are re-applied from its own history on top of the
// snapshot, and Verify refuses the install when the history no longer
// reaches them.
type installSnapshot struct {
	Snap *Root
}

func init() { core.RegisterUpdate(&installSnapshot{}) }

// Verify implements core.Update.
func (u *installSnapshot) Verify(root any) error {
	if u.Snap == nil || u.Snap.Tree == nil {
		return fmt.Errorf("replica: malformed snapshot")
	}
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	if _, lost := r.missingFrom(u.Snap.Vector); lost {
		return fmt.Errorf("%w: have %v, snapshot %v", ErrInstallRegress, r.Vector, u.Snap.Vector)
	}
	return nil
}

// Apply implements core.Update.
func (u *installSnapshot) Apply(root any) error {
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	// What the snapshot's holder lacks of ours, in per-origin order.
	ahead, _ := r.missingFrom(u.Snap.Vector)
	r.Tree = u.Snap.Tree
	r.Vector = copyVector(u.Snap.Vector)
	if u.Snap.Clock > r.Clock {
		r.Clock = u.Snap.Clock
	}
	r.History = append([]Entry(nil), u.Snap.History...)
	if u.Snap.HistoryCap > 0 {
		r.HistoryCap = u.Snap.HistoryCap
	}
	for _, e := range ahead {
		ru := e.update()
		if ru.Inner.Verify(r.Tree) != nil || ru.Apply(r) != nil {
			// The snapshot's tree refuses the update (a structural
			// conflict); the slot and the history entry are kept so the
			// vector still never moves backwards.
			ru.record(r)
		}
	}
	return nil
}

// RestoreFromPeer rebuilds a replica from a peer's full snapshot — the
// paper's hard-error recovery. Call it on a freshly opened (empty or
// reinitialized) node whose disk was lost; the node loses only updates that
// had not propagated anywhere.
func (n *Node) RestoreFromPeer(client *rpc.Client) error {
	var snap SnapshotReply
	if err := client.CallRetry("Replica.Snapshot", &SnapshotArgs{}, &snap, n.syncPolicy); err != nil {
		return err
	}
	return n.installSnapshot(snap.Root)
}

// Checkpoint forwards to the store.
func (n *Node) Checkpoint() error { return n.store.Checkpoint() }

// Close stops the push streams and anti-entropy, closes the member clients,
// wakes any quorum waiter with ErrQuorumUnreachable, and closes the store.
func (n *Node) Close() error {
	n.closeGroup()
	return n.store.Close()
}

// --- RPC service ---

// Service is the RPC face of a node; register it as "Replica".
type Service struct {
	node *Node
}

// NewService returns the RPC service for a node.
func NewService(n *Node) *Service { return &Service{node: n} }

// PushArgs carries propagated updates.
type PushArgs struct {
	Entries []Entry
}

// PushReply reports how many entries were newly applied, which node
// applied them, and how long the remote apply took — the origin echoes
// Node/ApplyNS into its trace as the remote half of the push. Vector is
// the member's full post-apply version vector: it is the authoritative
// per-origin ack, and quorum commit counts an ack only when the pusher's
// own slot in it covers the pushed entries, because a push that races
// ahead of its predecessors is silently skipped as a sequence gap
// (applied = 0, no error) and must not count. Seq duplicates the slot for
// the origin of the last pushed entry — only meaningful for single-origin
// batches; multi-origin pushers (anti-entropy repair) must read Vector,
// since a (origin, seq)-sorted batch can end on another origin's slot.
type PushReply struct {
	Applied int
	Node    string
	ApplyNS int64
	Seq     uint64
	Vector  map[string]uint64
}

// Push applies propagated updates. It takes the rpc layer's span context,
// so a traced push records the remote applies into this node's collector
// under the origin's trace ID.
func (s *Service) Push(args *PushArgs, reply *PushReply, sc obs.SpanContext) error {
	start := time.Now()
	applied, err := s.node.applyEntriesTraced(args.Entries, sc)
	reply.Applied = applied
	reply.Node = s.node.name
	reply.ApplyNS = int64(time.Since(start))
	if vec, verr := s.node.Vector(); verr == nil {
		reply.Vector = vec
		if len(args.Entries) > 0 {
			reply.Seq = vec[args.Entries[len(args.Entries)-1].Origin]
		}
	}
	return err
}

// PullArgs carries the caller's version vector.
type PullArgs struct {
	Vector map[string]uint64
}

// PullReply carries the entries the caller is missing, or NeedFull if the
// history has been trimmed past the caller's vector.
type PullReply struct {
	Entries  []Entry
	NeedFull bool
}

// Pull computes the missing suffix for a caller's vector.
func (s *Service) Pull(args *PullArgs, reply *PullReply) error {
	return s.node.store.View(func(root any) error {
		r, err := rootOf(root)
		if err != nil {
			return err
		}
		reply.Entries, reply.NeedFull = r.missingFrom(args.Vector)
		return nil
	})
}

// SnapshotArgs requests a full snapshot.
type SnapshotArgs struct{}

// SnapshotReply carries the node's entire root.
type SnapshotReply struct {
	Root *Root
}

// Snapshot returns the node's full state.
func (s *Service) Snapshot(args *SnapshotArgs, reply *SnapshotReply) (err error) {
	reply.Root, err = s.node.snapshotRoot()
	return err
}

// snapshotRoot returns the node's whole root for shipping to a peer. A
// versioned store hands out its published snapshot itself, so the only
// pickle is the RPC's own: a published root is never mutated and the
// collector keeps it alive, so it needs no pin (Store.View takes none
// either) past the moment it is read. An unversioned store deep-copies
// through pickle under the shared lock, which the result must outlive.
func (n *Node) snapshotRoot() (*Root, error) {
	if sn, err := n.store.SnapshotAt(); err == nil {
		defer sn.Release()
		return rootOf(sn.Root())
	}
	var cp Root
	err := n.store.View(func(root any) error {
		r, err := rootOf(root)
		if err != nil {
			return err
		}
		data, err := pickle.Marshal(r)
		if err != nil {
			return err
		}
		return pickle.Unmarshal(data, &cp)
	})
	if err != nil {
		return nil, err
	}
	return &cp, nil
}

// VectorArgs requests a member's version vector.
type VectorArgs struct{}

// VectorReply carries the member's version vector and durable frontier.
type VectorReply struct {
	Vector   map[string]uint64
	Frontier uint64
	Node     string
}

// Vector reports this member's version vector — a pushing member's
// anti-entropy loop uses it to compute the missing suffix to push.
func (s *Service) Vector(args *VectorArgs, reply *VectorReply) error {
	vec, err := s.node.Vector()
	if err != nil {
		return err
	}
	reply.Vector = vec
	reply.Frontier = vectorSum(vec)
	reply.Node = s.node.name
	return nil
}

// InstallArgs carries a full snapshot pushed to a member whose lag has
// outrun the history — the push-style dual of Snapshot/RestoreFromPeer.
type InstallArgs struct {
	Root *Root
}

// InstallReply acknowledges a snapshot install.
type InstallReply struct {
	Node     string
	Frontier uint64
}

// Install replaces this member's state with the pushed snapshot.
func (s *Service) Install(args *InstallArgs, reply *InstallReply) error {
	if err := s.node.installSnapshot(args.Root); err != nil {
		return err
	}
	reply.Node = s.node.name
	if vec, err := s.node.Vector(); err == nil {
		reply.Frontier = vectorSum(vec)
	}
	return nil
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
	pickle.Register(&PushArgs{})
	pickle.Register(&PushReply{})
	pickle.Register(&PullArgs{})
	pickle.Register(&PullReply{})
	pickle.Register(&SnapshotArgs{})
	pickle.Register(&SnapshotReply{})
	pickle.Register(&VectorArgs{})
	pickle.Register(&VectorReply{})
	pickle.Register(&InstallArgs{})
	pickle.Register(&InstallReply{})
	pickle.Register(&ReadArgs{})
	pickle.Register(&ReadReply{})
}
