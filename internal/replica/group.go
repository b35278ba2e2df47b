// Group mode generalizes the paper's hardwired replica pair to an N-node
// group with quorum commit. The node an update arrives at commits it
// locally (it is the update's origin — the single-writer store underneath
// is untouched), fans the entry out to every other member through
// per-member ordered push streams, and acks the client once a configurable
// write quorum W of members — the origin counts as one — have synced and
// applied it. Members that fall behind (partition, crash, full queue) are
// marked lagging and repaired in the background by a push-style
// anti-entropy loop driven from the origin's own history; the per-member
// streams stay ordered so a push can never be silently skipped as a
// sequence gap and still counted as an ack.

package replica

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/rpc"
)

// Typed config errors: the group-membership decode path rejects malformed
// input with these (never a panic) — the fuzz target holds it to that.
var (
	// ErrNoMembers marks an empty membership.
	ErrNoMembers = errors.New("replica: group has no members")
	// ErrDuplicateMember marks a member name that appears twice.
	ErrDuplicateMember = errors.New("replica: duplicate group member")
	// ErrBadMember marks a malformed member (empty name or address, or a
	// name containing the spec separators).
	ErrBadMember = errors.New("replica: malformed group member")
	// ErrBadQuorum marks a write quorum outside 1..N.
	ErrBadQuorum = errors.New("replica: write quorum out of range")
	// ErrSelfNotMember marks a local node name missing from the membership.
	ErrSelfNotMember = errors.New("replica: self is not a group member")
)

// Member is one node of a replica group.
type Member struct {
	Name string
	Addr string
}

// GroupConfig describes a replica group from one member's point of view.
type GroupConfig struct {
	// Self names the local node; it must appear in Members.
	Self string
	// Members is the full group membership, including Self.
	Members []Member
	// W is the write quorum: an update is acked once W members (the
	// origin counts as one) have synced and applied it. 0 means majority.
	W int
	// QueueDepth bounds each member's ordered push stream, in entries;
	// a member whose stream overflows is marked lagging and repaired by
	// anti-entropy instead. 0 means 1024.
	QueueDepth int
	// QuorumTimeout bounds how long Apply waits for the quorum after the
	// local commit; 0 means the push policy's budget plus a grace period.
	QuorumTimeout time.Duration
	// PushPolicy bounds each push RPC; SyncPolicy bounds each
	// anti-entropy RPC (Vector, Push, Install). Zero values mean the rpc
	// defaults.
	PushPolicy rpc.RetryPolicy
	SyncPolicy rpc.RetryPolicy
	// AntiEntropyEvery is the background repair interval for lagging
	// members; 0 means 100ms. Repair is also kicked immediately whenever
	// a member starts lagging.
	AntiEntropyEvery time.Duration
	// Obs receives the group gauges (replica_group_*); Tracer the push
	// and anti-entropy events.
	Obs    *obs.Registry
	Tracer obs.Tracer
}

// Majority returns the default write quorum for an n-member group:
// ⌈(n+1)/2⌉, i.e. more than half.
func Majority(n int) int {
	if n <= 0 {
		return 1
	}
	return n/2 + 1
}

// Validate checks the membership and quorum, normalizing W to the
// majority default. It returns the typed config errors above.
func (c *GroupConfig) Validate() error {
	if len(c.Members) == 0 {
		return ErrNoMembers
	}
	seen := make(map[string]bool, len(c.Members))
	for _, m := range c.Members {
		if m.Name == "" || m.Addr == "" || strings.ContainsAny(m.Name, "=,") {
			return fmt.Errorf("%w: %q=%q", ErrBadMember, m.Name, m.Addr)
		}
		if seen[m.Name] {
			return fmt.Errorf("%w: %q", ErrDuplicateMember, m.Name)
		}
		seen[m.Name] = true
	}
	if c.Self == "" || !seen[c.Self] {
		return fmt.Errorf("%w: %q not in %d members", ErrSelfNotMember, c.Self, len(c.Members))
	}
	if c.W == 0 {
		c.W = Majority(len(c.Members))
	}
	if c.W < 1 || c.W > len(c.Members) {
		return fmt.Errorf("%w: W=%d with %d members", ErrBadQuorum, c.W, len(c.Members))
	}
	return nil
}

// ParseGroupSpec decodes the nsd-style group spec: self is the local node
// name, peers is a comma-separated "name=addr" list of the other members
// (whitespace around items is tolerated, empty items are not), and w is
// the write quorum (0 = majority of the whole group, self included). The
// returned config's Members holds self (with an empty-is-fine local addr
// of "local") plus every peer.
func ParseGroupSpec(self, peers string, w int) (GroupConfig, error) {
	cfg := GroupConfig{Self: self, W: w}
	if strings.TrimSpace(self) == "" || strings.ContainsAny(self, "=,") {
		return cfg, fmt.Errorf("%w: self %q", ErrBadMember, self)
	}
	cfg.Members = append(cfg.Members, Member{Name: self, Addr: "local"})
	if strings.TrimSpace(peers) != "" {
		for _, item := range strings.Split(peers, ",") {
			item = strings.TrimSpace(item)
			name, addr, ok := strings.Cut(item, "=")
			if !ok || strings.TrimSpace(name) == "" || strings.TrimSpace(addr) == "" {
				return cfg, fmt.Errorf("%w: %q (want name=addr)", ErrBadMember, item)
			}
			cfg.Members = append(cfg.Members, Member{Name: strings.TrimSpace(name), Addr: strings.TrimSpace(addr)})
		}
	}
	if err := cfg.Validate(); err != nil {
		return cfg, err
	}
	return cfg, nil
}

// String renders the config back into spec form, for logs.
func (c GroupConfig) String() string {
	parts := make([]string, 0, len(c.Members))
	for _, m := range c.Members {
		if m.Name == c.Self {
			continue
		}
		parts = append(parts, m.Name+"="+m.Addr)
	}
	return "self=" + c.Self + " peers=" + strings.Join(parts, ",") + " w=" + strconv.Itoa(c.W)
}

// ErrQuorumUnreachable marks an update that committed locally but did not
// gather its write quorum within the timeout; it remains committed at the
// origin and propagates by anti-entropy, but the client must not treat it
// as quorum-durable.
var ErrQuorumUnreachable = errors.New("replica: write quorum unreachable")

// groupMetrics is the group-layer instrumentation; all fields are nil-safe.
type groupMetrics struct {
	quorumAcks  *obs.Counter   // updates acked at the write quorum
	quorumFails *obs.Counter   // updates that timed out short of the quorum
	quorumLag   *obs.Histogram // local commit → quorum ack, ns
	pushes      *obs.Counter   // stream pushes attempted
	pushErrors  *obs.Counter   // stream pushes failed (member goes lagging)
	laggards    *obs.Gauge     // members currently lagging
	queueDepth  *obs.Gauge     // entries queued across all member streams
	aeRounds    *obs.Counter   // anti-entropy repair rounds completed
	aeErrors    *obs.Counter   // anti-entropy repair rounds failed
	aeBytes     *obs.Counter   // pickled bytes of repair entries pushed
	aeInstalls  *obs.Counter   // full snapshot installs pushed to laggards
}

func newGroupMetrics(reg *obs.Registry) groupMetrics {
	return groupMetrics{
		quorumAcks:  reg.Counter("replica_group_quorum_acks"),
		quorumFails: reg.Counter("replica_group_quorum_fails"),
		quorumLag:   reg.Histogram("replica_group_quorum_lag_ns"),
		pushes:      reg.Counter("replica_group_pushes"),
		pushErrors:  reg.Counter("replica_group_push_errors"),
		laggards:    reg.Gauge("replica_group_laggards"),
		queueDepth:  reg.Gauge("replica_group_queue_depth"),
		aeRounds:    reg.Counter("replica_group_ae_rounds"),
		aeErrors:    reg.Counter("replica_group_ae_errors"),
		aeBytes:     reg.Counter("replica_group_ae_bytes"),
		aeInstalls:  reg.Counter("replica_group_ae_installs"),
	}
}

// memberState tracks one remote member's push stream.
type memberState struct {
	name   string
	client *rpc.Client
	ch     chan []Entry

	// Guarded by Group.mu.
	acked   uint64 // highest origin seq the member has applied
	lagging bool   // stream broken; anti-entropy owns repair
	queued  int    // entries in ch (laggard-depth accounting)
}

// Group is the quorum-commit fan-out for one member of a replica group.
// The wrapped Node remains the single-writer store and the group's RPC
// face; the Group adds ordered push streams, quorum waits, and push-style
// anti-entropy.
type Group struct {
	node   *Node
	cfg    GroupConfig
	w      int
	m      groupMetrics
	tracer obs.Tracer

	queueDepth    int
	quorumTimeout time.Duration
	aeInterval    time.Duration

	mu        sync.Mutex
	cond      *sync.Cond
	members   []*memberState // remote members, in cfg order
	commitSeq uint64         // highest locally committed origin seq
	closed    bool

	aeKick chan struct{}
	aeStop chan struct{}
	wg     sync.WaitGroup
}

// NewGroup validates cfg and wraps node — which must be named cfg.Self —
// as the local member. Remote members attach with Connect; pushes to a
// member start flowing once it is connected, and anti-entropy starts with
// the first connection.
func NewGroup(node *Node, cfg GroupConfig) (*Group, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if node.Name() != cfg.Self {
		return nil, fmt.Errorf("%w: node %q is not config self %q", ErrSelfNotMember, node.Name(), cfg.Self)
	}
	g := &Group{
		node:          node,
		cfg:           cfg,
		w:             cfg.W,
		m:             newGroupMetrics(cfg.Obs),
		tracer:        cfg.Tracer,
		queueDepth:    cfg.QueueDepth,
		quorumTimeout: cfg.QuorumTimeout,
		aeInterval:    cfg.AntiEntropyEvery,
		aeKick:        make(chan struct{}, 1),
		aeStop:        make(chan struct{}),
	}
	if g.queueDepth <= 0 {
		g.queueDepth = 1024
	}
	if g.quorumTimeout <= 0 {
		budget := cfg.PushPolicy.Budget
		if budget <= 0 {
			budget = 2 * time.Second
		}
		g.quorumTimeout = budget + budget/2
	}
	if g.aeInterval <= 0 {
		g.aeInterval = 100 * time.Millisecond
	}
	g.cond = sync.NewCond(&g.mu)
	g.wg.Add(1)
	go g.antiEntropyLoop()
	return g, nil
}

// Node exposes the wrapped local member.
func (g *Group) Node() *Node { return g.node }

// W reports the effective write quorum.
func (g *Group) W() int { return g.w }

// Connect attaches a remote member's RPC client and starts its ordered
// push stream. The client is owned by the group from here on (closed by
// Group.Close). Connecting a name that is not in the membership is an
// error; connecting a member twice replaces nothing and errors too.
func (g *Group) Connect(name string, client *rpc.Client) error {
	if name == g.cfg.Self {
		return fmt.Errorf("%w: connect of self %q", ErrBadMember, name)
	}
	found := false
	for _, m := range g.cfg.Members {
		if m.Name == name {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: connect of unknown member %q", ErrBadMember, name)
	}
	client.SetTracer(g.tracer)
	ms := &memberState{name: name, client: client, ch: make(chan []Entry, g.queueDepth)}
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("replica: group closed")
	}
	for _, old := range g.members {
		if old.name == name {
			g.mu.Unlock()
			return fmt.Errorf("%w: member %q already connected", ErrDuplicateMember, name)
		}
	}
	g.members = append(g.members, ms)
	g.mu.Unlock()
	g.wg.Add(1)
	go g.pusher(ms)
	return nil
}

// Apply commits inner locally and acks once the write quorum holds it.
func (g *Group) Apply(inner core.Update) error {
	return g.ApplyTraced(inner, obs.SpanContext{})
}

// ApplyTraced is Apply under a trace context.
func (g *Group) ApplyTraced(inner core.Update, sc obs.SpanContext) error {
	return g.applyAll([]core.Update{inner}, sc)
}

// ApplyBatch commits a batch locally through one epoch barrier and acks
// once the write quorum holds the whole batch. Prefix semantics follow
// core.Store.ApplyBatch: on a batch error the committed prefix still fans
// out (and is quorum-waited) and the batch error is returned; if the
// quorum wait fails too, the errors are joined so the caller sees both.
func (g *Group) ApplyBatch(inners []core.Update) error {
	return g.applyAll(inners, obs.SpanContext{})
}

func (g *Group) applyAll(inners []core.Update, sc obs.SpanContext) error {
	entries, batchErr := g.node.commitLocal(inners, sc)
	if len(entries) == 0 {
		return batchErr
	}
	committed := time.Now()
	last := entries[len(entries)-1].Seq
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("%w: group closed", ErrQuorumUnreachable)
	}
	if last > g.commitSeq {
		g.commitSeq = last
	}
	lagged := false
	for _, ms := range g.members {
		if ms.lagging {
			continue
		}
		select {
		case ms.ch <- entries:
			ms.queued += len(entries)
			g.m.queueDepth.Add(int64(len(entries)))
		default:
			// Stream full: the member is not keeping up. Hand it to
			// anti-entropy rather than block the commit path.
			ms.lagging = true
			lagged = true
			g.m.laggards.Add(1)
		}
	}
	g.mu.Unlock()
	if lagged {
		g.kickAE()
	}
	if err := g.awaitQuorum(last, committed); err != nil {
		// Surface both failures: the caller must learn that the suffix was
		// never committed anywhere (batchErr) AND that even the committed
		// prefix is not quorum-durable (err).
		return errors.Join(err, batchErr)
	}
	return batchErr
}

// Set and Delete are name-tree conveniences over Apply.

// Set binds value to name, quorum-acked.
func (g *Group) Set(name, value string) error { return g.SetTraced(name, value, obs.SpanContext{}) }

// SetTraced is Set under a trace context.
func (g *Group) SetTraced(name, value string, sc obs.SpanContext) error {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return err
	}
	return g.ApplyTraced(&nameserver.SetValue{Path: parts, Value: value}, sc)
}

// Delete removes name and its subtree, quorum-acked.
func (g *Group) Delete(name string) error { return g.DeleteTraced(name, obs.SpanContext{}) }

// DeleteTraced is Delete under a trace context.
func (g *Group) DeleteTraced(name string, sc obs.SpanContext) error {
	parts, err := nameserver.SplitPath(name)
	if err != nil {
		return err
	}
	return g.ApplyTraced(&nameserver.DeleteSubtree{Path: parts}, sc)
}

// awaitQuorum blocks until W members (this one included) have applied seq,
// or the quorum timeout passes.
func (g *Group) awaitQuorum(seq uint64, committed time.Time) error {
	need := g.w - 1 // remote acks needed; the local commit is the first
	if need <= 0 {
		g.m.quorumAcks.Inc()
		g.m.quorumLag.ObserveSince(committed)
		return nil
	}
	deadline := committed.Add(g.quorumTimeout)
	timer := time.AfterFunc(time.Until(deadline), func() {
		g.mu.Lock()
		g.cond.Broadcast()
		g.mu.Unlock()
	})
	defer timer.Stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	for {
		got := 0
		for _, ms := range g.members {
			if ms.acked >= seq {
				got++
			}
		}
		if got >= need {
			g.m.quorumAcks.Inc()
			g.m.quorumLag.ObserveSince(committed)
			return nil
		}
		if g.closed {
			return fmt.Errorf("%w: group closed at %d/%d acks for seq %d", ErrQuorumUnreachable, got+1, g.w, seq)
		}
		if !time.Now().Before(deadline) {
			g.m.quorumFails.Inc()
			return fmt.Errorf("%w: %d/%d acks for seq %d after %v", ErrQuorumUnreachable, got+1, g.w, seq, g.quorumTimeout)
		}
		g.cond.Wait()
	}
}

// pusher drains one member's ordered stream. Order is what makes an ack
// trustworthy: entries reach the member in origin-sequence order, so the
// member's replied vector slot climbs without silent gap-skips. Any push
// failure (or a reply that does not cover the batch) flips the member to
// lagging; from then on the pusher discards its queue — burning the push
// budget per queued batch against a dead member would stall repair — and
// anti-entropy owns the member until it has caught back up.
func (g *Group) pusher(ms *memberState) {
	defer g.wg.Done()
	for batch := range ms.ch {
		// Coalesce whatever else is already queued into this push: one
		// RPC absorbs the whole backlog, so a member running behind the
		// commit rate pays per-push cost once per burst instead of once
		// per commit. Order is preserved — the queue is the stream.
		for {
			var more []Entry
			var ok bool
			select {
			case more, ok = <-ms.ch:
			default:
			}
			if !ok || more == nil {
				break
			}
			batch = append(batch, more...)
		}
		g.mu.Lock()
		ms.queued -= len(batch)
		g.m.queueDepth.Add(-int64(len(batch)))
		skip := ms.lagging
		g.mu.Unlock()
		if skip {
			continue
		}
		last := batch[len(batch)-1].Seq
		var reply PushReply
		err := ms.client.CallRetry("Replica.Push", &PushArgs{Entries: batch}, &reply, g.cfg.PushPolicy)
		g.m.pushes.Inc()
		// The ack is the member's post-apply slot for OUR origin (stream
		// batches are all local-origin entries); prefer the replied vector
		// over Seq, which only names the last entry's origin.
		acked := reply.Seq
		if reply.Vector != nil {
			acked = reply.Vector[g.node.Name()]
		}
		g.mu.Lock()
		switch {
		case err != nil, acked < last:
			if !ms.lagging {
				ms.lagging = true
				g.m.laggards.Add(1)
			}
			g.m.pushErrors.Inc()
			g.mu.Unlock()
			g.kickAE()
		default:
			if acked > ms.acked {
				ms.acked = acked
				g.cond.Broadcast()
			}
			g.mu.Unlock()
		}
	}
}

// kickAE nudges the anti-entropy loop without blocking.
func (g *Group) kickAE() {
	select {
	case g.aeKick <- struct{}{}:
	default:
	}
}

// antiEntropyLoop repairs lagging members: fetch the member's vector,
// push the missing suffix from our own history (or a full snapshot when
// the history has been trimmed past the member's vector), and clear the
// lagging mark only once the member has covered every seq committed so
// far — re-checking under the lock so a commit racing the repair keeps
// the member lagging and the loop running.
func (g *Group) antiEntropyLoop() {
	defer g.wg.Done()
	t := time.NewTicker(g.aeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.aeStop:
			return
		case <-g.aeKick:
		case <-t.C:
		}
		g.mu.Lock()
		var lagging []*memberState
		for _, ms := range g.members {
			if ms.lagging {
				lagging = append(lagging, ms)
			}
		}
		g.mu.Unlock()
		for _, ms := range lagging {
			g.repair(ms)
		}
	}
}

// repair runs rounds against one lagging member until it is caught up or
// a round fails (the next kick or tick retries).
func (g *Group) repair(ms *memberState) {
	for {
		repairedTo, err := g.repairRound(ms)
		g.mu.Lock()
		if err != nil {
			g.m.aeErrors.Inc()
			g.mu.Unlock()
			obs.Emit(g.tracer, obs.Event{Name: "replica.group_repair", Err: err, Attrs: []obs.Attr{obs.A("member", ms.name)}})
			return
		}
		g.m.aeRounds.Inc()
		if repairedTo > ms.acked {
			ms.acked = repairedTo
			g.cond.Broadcast()
		}
		if ms.acked >= g.commitSeq || g.closed {
			// Caught up with everything committed so far; new commits
			// enqueue normally again.
			if ms.lagging {
				ms.lagging = false
				g.m.laggards.Add(-1)
			}
			g.mu.Unlock()
			return
		}
		g.mu.Unlock()
	}
}

// repairRound ships one round of missing entries (or a snapshot) to the
// member and returns the origin seq the member then covers.
func (g *Group) repairRound(ms *memberState) (uint64, error) {
	var vec VectorReply
	if err := ms.client.CallRetry("Replica.Vector", &VectorArgs{}, &vec, g.cfg.SyncPolicy); err != nil {
		return 0, err
	}
	origin := g.node.Name()
	var entries []Entry
	var needFull bool
	err := g.node.store.View(func(root any) error {
		r, rerr := rootOf(root)
		if rerr != nil {
			return rerr
		}
		entries, needFull = r.missingFrom(vec.Vector)
		return nil
	})
	if err != nil {
		return 0, err
	}
	if needFull {
		snap, err := g.node.snapshotRoot()
		if err != nil {
			return 0, err
		}
		var reply InstallReply
		if err := ms.client.CallRetry("Replica.Install", &InstallArgs{Root: snap}, &reply, g.cfg.SyncPolicy); err != nil {
			return 0, err
		}
		g.m.aeInstalls.Inc()
		return snap.Vector[origin], nil
	}
	if len(entries) == 0 {
		return vec.Vector[origin], nil
	}
	args := &PushArgs{Entries: entries}
	if data, merr := pickle.Marshal(args); merr == nil {
		g.m.aeBytes.Add(uint64(len(data)))
	}
	var reply PushReply
	if err := ms.client.CallRetry("Replica.Push", args, &reply, g.cfg.SyncPolicy); err != nil {
		return 0, err
	}
	// Repair batches are multi-origin and (origin, seq)-sorted, so
	// reply.Seq may name ANOTHER origin's slot; trusting it here would
	// inflate ms.acked and let awaitQuorum count acks the member never
	// received. Only the member's replied vector slot for our own origin
	// is an ack of local seqs; without a vector, fall back to the slot
	// the member proved before the push rather than guess.
	if reply.Vector != nil {
		return reply.Vector[origin], nil
	}
	return vec.Vector[origin], nil
}

// MarkLagging forces a member onto the anti-entropy path (test hook and
// administrative remedy for a member known to have restarted).
func (g *Group) MarkLagging(name string) {
	g.mu.Lock()
	for _, ms := range g.members {
		if ms.name == name && !ms.lagging {
			ms.lagging = true
			g.m.laggards.Add(1)
		}
	}
	g.mu.Unlock()
	g.kickAE()
}

// Acked reports the highest origin seq each connected member has applied,
// plus this node's own committed seq under its own name.
func (g *Group) Acked() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := map[string]uint64{g.cfg.Self: g.commitSeq}
	for _, ms := range g.members {
		out[ms.name] = ms.acked
	}
	return out
}

// Close stops the pushers and anti-entropy, closes the member clients,
// and wakes any quorum waiter with ErrQuorumUnreachable. It does not
// close the wrapped node.
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	members := g.members
	g.cond.Broadcast()
	g.mu.Unlock()
	close(g.aeStop)
	for _, ms := range members {
		close(ms.ch)
	}
	g.wg.Wait()
	for _, ms := range members {
		ms.client.Close()
	}
	return nil
}
