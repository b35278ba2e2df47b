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
	// replica.antientropy events.
	Obs    *obs.Registry
	Tracer obs.Tracer
	// PushPolicy bounds the retrying push of each committed update to
	// each peer (the zero value means the rpc defaults: 2s budget,
	// exponential backoff with jitter). A push that exhausts its policy
	// is simply dropped — the peer catches up through anti-entropy — so
	// the budget is how long Apply is willing to stall absorbing
	// transient network faults before handing the update to the
	// background repair path.
	PushPolicy rpc.RetryPolicy
	// SyncPolicy bounds each anti-entropy RPC (Pull, Snapshot) the same
	// way. Both policies ride on idempotency tokens, so a retried push
	// never double-applies even if the first attempt executed and only
	// its response was lost.
	SyncPolicy rpc.RetryPolicy
}

// Node is one replica: a full store plus the propagation machinery.
type Node struct {
	name  string
	store *core.Store

	m      nodeMetrics
	tracer obs.Tracer

	pushPolicy rpc.RetryPolicy
	syncPolicy rpc.RetryPolicy

	mu    sync.Mutex // serializes local sequence assignment
	peers map[string]*rpc.Client

	stopAE chan struct{}
	aeWG   sync.WaitGroup
}

// nodeMetrics is the replication-layer instrumentation; all fields are
// nil-safe.
type nodeMetrics struct {
	pushes       *obs.Counter   // propagation attempts (one per peer per local update)
	pushErrors   *obs.Counter   // failed pushes (the peer catches up by anti-entropy)
	pushLag      *obs.Histogram // local commit → peer ack, ns
	aeRounds     *obs.Counter   // anti-entropy pulls completed
	aeErrors     *obs.Counter   // anti-entropy pulls failed
	aeApplied    *obs.Counter   // divergence repairs: entries applied by anti-entropy
	fullRestores *obs.Counter   // snapshot installs (history trimmed or hard error)
}

func newNodeMetrics(reg *obs.Registry) nodeMetrics {
	return nodeMetrics{
		pushes:       reg.Counter("replica_pushes"),
		pushErrors:   reg.Counter("replica_push_errors"),
		pushLag:      reg.Histogram("replica_push_lag_ns"),
		aeRounds:     reg.Counter("replica_ae_rounds"),
		aeErrors:     reg.Counter("replica_ae_errors"),
		aeApplied:    reg.Counter("replica_ae_applied"),
		fullRestores: reg.Counter("replica_full_restores"),
	}
}

// Open recovers (or initializes) a replica node.
func Open(cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("replica: Config.Name is required")
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
	return &Node{
		name:       cfg.Name,
		store:      st,
		m:          newNodeMetrics(cfg.Obs),
		tracer:     cfg.Tracer,
		pushPolicy: cfg.PushPolicy,
		syncPolicy: cfg.SyncPolicy,
		peers:      make(map[string]*rpc.Client),
	}, nil
}

// Name reports the node's name.
func (n *Node) Name() string { return n.name }

// Store exposes the underlying store.
func (n *Node) Store() *core.Store { return n.store }

// AddPeer connects this node to a peer's RPC endpoint. The client adopts
// the node's tracer so retrying pushes record per-attempt spans.
func (n *Node) AddPeer(name string, client *rpc.Client) {
	client.SetTracer(n.tracer)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.peers[name] = client
}

// --- local operations ---

// Apply commits an inner update locally (stamped with this node's next
// sequence number) and then pushes it to every peer, best-effort: a peer
// that is down catches up later through anti-entropy.
func (n *Node) Apply(inner core.Update) error {
	return n.ApplyTraced(inner, obs.SpanContext{})
}

// ApplyTraced is Apply under a trace context: the local commit's phase
// spans, the per-peer push (with its rpc attempts), and the peer's remote
// apply all land in the caller's trace.
func (n *Node) ApplyTraced(inner core.Update, sc obs.SpanContext) error {
	n.mu.Lock()
	var seq, stamp uint64
	err := n.store.View(func(root any) error {
		r, err := rootOf(root)
		if err != nil {
			return err
		}
		seq = r.Vector[n.name] + 1
		stamp = r.Clock + 1
		return nil
	})
	if err != nil {
		n.mu.Unlock()
		return err
	}
	ru := &Replicated{Origin: n.name, Seq: seq, Stamp: stamp, Inner: inner}
	err = n.store.ApplyTraced(ru, sc)
	peers := make([]*rpc.Client, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	if err != nil {
		return err
	}
	committed := time.Now()
	entry := Entry{Origin: n.name, Seq: seq, Stamp: stamp, Inner: inner}
	for _, p := range peers {
		// The push is a child span of the caller's trace, and its own
		// context rides the wire so the peer's apply joins the trace too.
		pspan := obs.StartSpan(n.tracer, sc, "replica.push")
		wire := sc
		if pspan.Active() {
			wire = pspan.Context()
		}
		var reply PushReply
		perr := p.CallRetryTraced(wire, "Replica.Push", &PushArgs{Entries: []Entry{entry}}, &reply, n.pushPolicy)
		n.m.pushes.Inc()
		if perr != nil {
			n.m.pushErrors.Inc()
		} else {
			// Push lag: how far behind a peer runs between our commit
			// point and its acknowledgement of the propagated update.
			n.m.pushLag.ObserveSince(committed)
		}
		if pspan.Active() {
			pspan.End(perr, obs.A("origin", n.name), obs.A("seq", seq), obs.A("peer", reply.Node))
			if perr == nil && reply.Node != "" {
				// Echo the peer's apply time into our own collector so the
				// single-node timeline shows the remote side of the push.
				d := time.Duration(reply.ApplyNS)
				n.tracer.Emit(obs.Event{
					Name:   "replica.remote_apply",
					Time:   time.Now().Add(-d),
					Dur:    d,
					Trace:  wire.Trace,
					Span:   obs.NewSpanID(),
					Parent: wire.Span,
					Attrs:  []obs.Attr{obs.A("node", reply.Node), obs.A("applied", reply.Applied)},
				})
			}
		} else {
			obs.Emit(n.tracer, obs.Event{Name: "replica.push", Dur: time.Since(committed), Err: perr, Attrs: []obs.Attr{
				obs.A("origin", n.name), obs.A("seq", seq),
			}})
		}
	}
	return nil
}

// ApplyBatch commits a batch of local updates through one store batch —
// one epoch barrier — stamping each with consecutive
// local sequence numbers, then pushes the whole batch to every peer in a
// single RPC. Prefix semantics follow core.Store.ApplyBatch: on error the
// already-verified prefix is committed (and pushed) and the error returned.
func (n *Node) ApplyBatch(inners []core.Update) error {
	if len(inners) == 0 {
		return nil
	}
	n.mu.Lock()
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
		n.mu.Unlock()
		return err
	}
	entries, us := n.stamp(inners, seq, stamp)
	// Only the applied prefix may be pushed; anti-entropy would otherwise
	// resurrect updates this node never committed.
	committedN, batchErr := n.store.ApplyBatchTraced(us, obs.SpanContext{})
	peers := make([]*rpc.Client, 0, len(n.peers))
	for _, p := range n.peers {
		peers = append(peers, p)
	}
	n.mu.Unlock()
	if committedN > 0 {
		committed := time.Now()
		for _, p := range peers {
			var reply PushReply
			perr := p.CallRetry("Replica.Push", &PushArgs{Entries: entries[:committedN]}, &reply, n.pushPolicy)
			n.m.pushes.Inc()
			if perr != nil {
				n.m.pushErrors.Inc()
			} else {
				n.m.pushLag.ObserveSince(committed)
			}
			obs.Emit(n.tracer, obs.Event{Name: "replica.push", Dur: time.Since(committed), Err: perr, Attrs: []obs.Attr{
				obs.A("origin", n.name), obs.A("seq", seq+uint64(committedN)), obs.A("batch", committedN),
			}})
		}
	}
	return batchErr
}

// commitLocal commits a batch of inner updates locally — stamping each
// with this node's consecutive sequence numbers — without pushing to any
// peer. It returns the committed entries; on a batch error the applied
// prefix is returned alongside the error (core.Store.ApplyBatch prefix
// semantics). Group mode uses it as the first half of quorum commit: the
// group's per-member push streams take propagation from there.
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
	entries, us := n.stamp(inners, seq, stamp)
	committedN, batchErr := n.store.ApplyBatchTraced(us, sc)
	return entries[:committedN], batchErr
}

// stamp assigns inners this node's consecutive sequence numbers and Lamport
// stamps after (seq, stamp), as history entries and as the updates that log
// them. Callers hold n.mu.
func (n *Node) stamp(inners []core.Update, seq, stamp uint64) ([]Entry, []core.Update) {
	entries := make([]Entry, len(inners))
	us := make([]core.Update, len(inners))
	for i, inner := range inners {
		entries[i] = Entry{Origin: n.name, Seq: seq + uint64(i) + 1, Stamp: stamp + uint64(i) + 1, Inner: inner}
		us[i] = entries[i].update()
	}
	return entries, us
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

// Lookup reads the value bound to name.
func (n *Node) Lookup(name string) (string, error) {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return "", err
	}
	var out string
	err = n.store.View(func(root any) error {
		r, err := rootOf(root)
		if err != nil {
			return err
		}
		t := r.Tree
		v, err := lookupTree(t, parts)
		if err != nil {
			return err
		}
		out = v
		return nil
	})
	return out, err
}

func lookupTree(t *nameserver.Tree, parts []string) (string, error) {
	n := t.Root
	for _, p := range parts {
		if n == nil || n.Children == nil {
			return "", nameserver.ErrNotFound
		}
		n = n.Children[p]
	}
	if n == nil {
		return "", nameserver.ErrNotFound
	}
	if !n.HasValue {
		return "", nameserver.ErrNoValue
	}
	return n.Value, nil
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
		v, lerr = lookupTree(r.Tree, parts)
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

// --- anti-entropy ---

// SyncWith pulls everything this node is missing from one peer. If the
// peer's history has been trimmed past what we need, it falls back to a
// full snapshot transfer.
func (n *Node) SyncWith(client *rpc.Client) error {
	// An anti-entropy round is its own trace root: the pull, any snapshot
	// transfer, and every repaired entry's commit chain under it.
	root := obs.StartRoot(n.tracer, "replica.antientropy")
	start := time.Now()
	applied, full, err := n.syncWith(client, root.Context())
	if err != nil {
		n.m.aeErrors.Inc()
	} else {
		n.m.aeRounds.Inc()
		n.m.aeApplied.Add(uint64(applied))
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

// AntiEntropyEvery starts a background loop syncing with every peer at the
// given interval — the paper's long-term replica consistency mechanism.
func (n *Node) AntiEntropyEvery(interval time.Duration) {
	n.mu.Lock()
	if n.stopAE != nil {
		n.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	n.stopAE = stop
	n.mu.Unlock()
	n.aeWG.Add(1)
	go func() {
		defer n.aeWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				n.mu.Lock()
				peers := make([]*rpc.Client, 0, len(n.peers))
				for _, p := range n.peers {
					peers = append(peers, p)
				}
				n.mu.Unlock()
				for _, p := range peers {
					_ = n.SyncWith(p)
				}
			}
		}
	}()
}

// installSnapshot replaces this node's entire state with a peer's snapshot,
// keeping our own-origin updates if we are ahead (they will re-propagate).
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
// logged like any other update, so it is itself crash-consistent.
type installSnapshot struct {
	Snap *Root
}

func init() { core.RegisterUpdate(&installSnapshot{}) }

// Verify implements core.Update.
func (u *installSnapshot) Verify(root any) error {
	if u.Snap == nil || u.Snap.Tree == nil {
		return fmt.Errorf("replica: malformed snapshot")
	}
	_, err := rootOf(root)
	return err
}

// Apply implements core.Update.
func (u *installSnapshot) Apply(root any) error {
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	r.Tree = u.Snap.Tree
	r.Vector = copyVector(u.Snap.Vector)
	if u.Snap.Clock > r.Clock {
		r.Clock = u.Snap.Clock
	}
	r.History = append([]Entry(nil), u.Snap.History...)
	if u.Snap.HistoryCap > 0 {
		r.HistoryCap = u.Snap.HistoryCap
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

// Close stops anti-entropy and closes the store.
func (n *Node) Close() error {
	n.mu.Lock()
	stop := n.stopAE
	n.stopAE = nil
	peers := n.peers
	n.peers = map[string]*rpc.Client{}
	n.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	n.aeWG.Wait()
	for _, p := range peers {
		p.Close()
	}
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

// Vector reports this member's version vector — the group primary's
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
// each of its peers; if still behind it answers with Stale set (typed
// errors do not survive the RPC wire, so staleness is a reply field, not
// an error) and the client redirects to a fresher member.
func (s *Service) Read(args *ReadArgs, reply *ReadReply) error {
	v, frontier, err := s.node.ReadAt(args.Name, args.MinSeq)
	if IsStale(err) {
		s.node.mu.Lock()
		peers := make([]*rpc.Client, 0, len(s.node.peers))
		for _, p := range s.node.peers {
			peers = append(peers, p)
		}
		s.node.mu.Unlock()
		for _, p := range peers {
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
