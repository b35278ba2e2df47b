// A node is one member of an N-node replica group. The node an update
// arrives at commits it locally (it is the update's origin — the
// single-writer store underneath is untouched), hands the entry to every
// member's ordered push stream as soon as it is logged, and acks the client
// once a configurable write quorum W of members — the origin counts as one —
// have synced and applied it. W = 1 is the paper's §4 rule, ack after one
// replica: the wait is over before it starts. A quorum needs W − 1 members,
// so only that many are eager: the first W − 1 members not lagging, in
// Connect order, are pushed each entry at once, and their syncs run beside
// the origin's own. Every other member is lazy: its stream is coalesced over
// a short linger and pushed only the prefix the origin has made durable, so
// it never holds an entry its origin could lose. Any member's ack counts
// toward the quorum, so a dead eager member costs a Set one lazy push, and
// once it goes lagging the next member in line is eager. An eager member
// may hold an entry its origin never made durable, so a W > 1 origin takes
// its own stream back from every member before it originates after a
// restart (see reconcile). N = 1 is the lone node, a pair is N = 2. Members
// that fall behind (partition, crash, full queue) are marked lagging and
// repaired in the background by a push-style anti-entropy loop driven from
// the origin's own logs: an empty Push probes the member's vector, and a
// second Push carries the Catchup it lacks. The per-member streams stay
// ordered so a push can never be silently skipped as a sequence gap and
// still counted as an ack. Entries enter the streams under the store's
// update lock, so in log order, and concurrent commits share one local sync
// as a lone store's do.

package replica

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/obs"
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

// GroupConfig is the group half of Config: who the members are and how
// many of them an update waits for.
type GroupConfig struct {
	// Members is the full group membership, the local node (Config.Name)
	// included. Empty means the lone node, N = 1.
	Members []Member
	// W is the write quorum: an update is acked once W members (the
	// origin counts as one) have synced and applied it. 0 means majority.
	W int
	// QuorumTimeout bounds how long Apply waits for the quorum after the
	// local commit; 0 means the push policy's budget plus a grace period.
	QuorumTimeout time.Duration
	// AntiEntropyEvery is the background interval at which every connected
	// member's vector is probed and whatever it lacks pushed; 0 means
	// 100ms. A member that starts lagging is repaired at once, not at the
	// next tick.
	AntiEntropyEvery time.Duration
}

// Majority returns the default write quorum for an n-member group:
// ⌈(n+1)/2⌉, i.e. more than half.
func Majority(n int) int {
	if n <= 0 {
		return 1
	}
	return n/2 + 1
}

// Validate checks the membership — self must be in it — and the quorum,
// normalizing W to the majority default. It returns the typed config errors
// above.
func (c *GroupConfig) Validate(self string) error {
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
	if self == "" || !seen[self] {
		return fmt.Errorf("%w: %q not in %d members", ErrSelfNotMember, self, len(c.Members))
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
	cfg := GroupConfig{W: w}
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
	return cfg, cfg.Validate(self)
}

// ErrQuorumUnreachable marks an update that committed locally but did not
// gather its write quorum within the timeout; it remains committed at the
// origin and propagates by anti-entropy, but the client must not treat it
// as quorum-durable.
var ErrQuorumUnreachable = errors.New("replica: write quorum unreachable")

// streamDepth bounds each member's ordered push stream, in queued batches;
// a member whose stream overflows is marked lagging and repaired by
// anti-entropy instead.
const streamDepth = 1024

// A lazy member's pusher waits lazyLinger for more of its stream to queue,
// and any pusher coalesces queued batches into one push up to pushCap
// entries.
const (
	lazyLinger = 3 * time.Millisecond
	pushCap    = 256
)

// push is one queued stream batch and the trace of the update that
// committed it.
type push struct {
	entries []Entry
	sc      obs.SpanContext
}

// memberState tracks one remote member's push stream.
type memberState struct {
	name   string
	client *rpc.Client
	ch     chan push

	// Guarded by Node.gmu.
	acked   uint64 // highest origin seq the member has applied
	lagging bool   // stream broken; anti-entropy owns repair
}

// W reports the effective write quorum.
func (n *Node) W() int { return n.group.W }

// Connect attaches a remote member's RPC client and starts its ordered
// push stream. The client is owned by the node from here on (closed by
// Close) and adopts the node's tracer, so retrying pushes record per-attempt
// spans. Connecting a name that is not in the membership is an error;
// connecting a member twice replaces nothing and errors too.
func (n *Node) Connect(name string, client *rpc.Client) error {
	if name == n.name {
		return fmt.Errorf("%w: connect of self %q", ErrBadMember, name)
	}
	if !slices.ContainsFunc(n.group.Members, func(m Member) bool { return m.Name == name }) {
		return fmt.Errorf("%w: connect of unknown member %q", ErrBadMember, name)
	}
	client.SetTracer(n.tracer)
	ms := &memberState{name: name, client: client, ch: make(chan push, n.queueDepth)}
	n.gmu.Lock()
	if n.closed {
		n.gmu.Unlock()
		return fmt.Errorf("replica: node closed")
	}
	for _, old := range n.members {
		if old.name == name {
			n.gmu.Unlock()
			return fmt.Errorf("%w: member %q already connected", ErrDuplicateMember, name)
		}
	}
	n.members = append(n.members, ms)
	owed := slices.Contains(n.owed, name)
	n.gmu.Unlock()
	n.wg.Add(1)
	go n.pusher(ms)
	if owed {
		n.kickAE() // the gate's pull from it starts at once
	}
	return nil
}

// applyAll is the node's commit, every local update's path: past the gate
// (reconcile), one store batch stamps each update under the store's update
// lock (Replicated.Verify) and hands the logged prefix to the push streams
// under it too — stream order is log order, and concurrent commits share a
// sync — then the ack waits for the write quorum. Under a trace context sc
// the local commit's phase spans, each member's push (with its rpc
// attempts) and the member's remote apply land in sc's trace. Prefix
// semantics follow core.Store.ApplyBatch: on a batch error the committed
// prefix still fans out (and is quorum-waited) and the batch error is
// returned; if the quorum wait fails too, the errors are joined so the
// caller sees both.
func (n *Node) applyAll(inners []core.Update, sc obs.SpanContext) error {
	if len(inners) == 0 {
		return nil
	}
	n.mu.RLock()
	if err := n.reconcile(); err != nil {
		n.mu.RUnlock()
		return err
	}
	us := make([]core.Update, len(inners))
	for i, inner := range inners {
		us[i] = &Replicated{Origin: n.name, Inner: inner, local: true}
	}
	var entries []Entry // capacity-limited: every pusher appends to its own copy
	committed, batchErr := n.Store().ApplyBatchTraced(us, sc, func(k int) {
		entries = make([]Entry, k)
		for i, u := range us[:k] {
			entries[i] = u.(*Replicated).entry()
		}
		n.stream(entries, sc)
	})
	n.mu.RUnlock()
	if len(entries) > 0 { // how far it settled and is durable, for the pushers
		n.gmu.Lock()
		n.settled = max(n.settled, entries[len(entries)-1].Seq)
		if committed > 0 {
			n.durable = max(n.durable, entries[committed-1].Seq)
		}
		n.cond.Broadcast()
		n.gmu.Unlock()
	}
	if committed == 0 {
		return batchErr
	}
	if err := n.awaitQuorum(entries[committed-1].Seq, time.Now()); err != nil {
		// Surface both failures: the caller must learn that the suffix was
		// never committed anywhere (batchErr) AND that even the committed
		// prefix is not quorum-durable (err).
		return errors.Join(err, batchErr)
	}
	return batchErr
}

// stream hands logged entries to the push stream of every member that is
// not lagging — a member whose stream is full is marked lagging instead —
// and raises commitSeq. It hands nothing on once the node is closed.
func (n *Node) stream(entries []Entry, sc obs.SpanContext) {
	n.gmu.Lock()
	if n.closed {
		n.gmu.Unlock()
		return
	}
	n.commitSeq = max(n.commitSeq, entries[len(entries)-1].Seq)
	lagged := false
	for _, ms := range n.members {
		if ms.lagging {
			continue
		}
		select {
		case ms.ch <- push{entries, sc}:
			n.m.queueDepth.Add(int64(len(entries)))
		default:
			// Stream full: the member is not keeping up. Hand it to
			// anti-entropy rather than block the commit path.
			ms.lagging = true
			lagged = true
			n.m.laggards.Add(1)
		}
	}
	n.gmu.Unlock()
	if lagged {
		n.kickAE()
	}
}

// eager reports whether ms is one of the first W − 1 members, in Connect
// order, that are not lagging: those are pushed an entry as soon as it is
// logged. Caller holds gmu.
func (n *Node) eager(ms *memberState) bool {
	rank := 0
	for _, o := range n.members {
		if o == ms {
			return rank < n.group.W-1
		}
		if !o.lagging {
			rank++
		}
	}
	return false
}

// awaitQuorum blocks until W members (this one included) have applied seq,
// or the quorum timeout passes.
func (n *Node) awaitQuorum(seq uint64, committed time.Time) error {
	need := n.group.W - 1 // remote acks needed; the local commit is the first
	if need <= 0 {
		n.m.quorumAcks.Inc()
		n.m.quorumLag.ObserveSince(committed)
		return nil
	}
	deadline := committed.Add(n.group.QuorumTimeout)
	timer := time.AfterFunc(time.Until(deadline), func() {
		n.gmu.Lock()
		n.cond.Broadcast()
		n.gmu.Unlock()
	})
	defer timer.Stop()
	n.gmu.Lock()
	defer n.gmu.Unlock()
	for {
		got := 0
		for _, ms := range n.members {
			if ms.acked >= seq {
				got++
			}
		}
		if got >= need {
			n.m.quorumAcks.Inc()
			n.m.quorumLag.ObserveSince(committed)
			return nil
		}
		if n.closed {
			return fmt.Errorf("%w: node closed at %d/%d acks for seq %d", ErrQuorumUnreachable, got+1, n.group.W, seq)
		}
		if !time.Now().Before(deadline) {
			n.m.quorumFails.Inc()
			return fmt.Errorf("%w: %d/%d acks for seq %d after %v", ErrQuorumUnreachable, got+1, n.group.W, seq, n.group.QuorumTimeout)
		}
		n.cond.Wait()
	}
}

// pusher drains one member's ordered stream. Order is what makes an ack
// trustworthy: entries reach the member in origin-sequence order, so the
// member's replied vector slot climbs without silent gap-skips. An eager
// member is pushed each batch at once; a lazy one lingers for more to
// queue, waits for the batch's local commit to return and is pushed only
// its durable prefix. Any push failure (or a reply that does not cover the
// batch) flips the member to lagging; from then on the pusher discards its
// queue — burning the push budget per queued batch against a dead member
// would stall repair — and anti-entropy owns the member until it has
// caught back up.
func (n *Node) pusher(ms *memberState) {
	defer n.wg.Done()
	for p := range ms.ch {
		n.gmu.Lock()
		lazy := !n.eager(ms)
		n.gmu.Unlock()
		if lazy {
			time.Sleep(lazyLinger)
		}
		// Coalesce whatever else is already queued into this push: one
		// RPC absorbs the whole backlog, so a member running behind the
		// commit rate pays per-push cost once per burst instead of once
		// per commit. Order is preserved — the queue is the stream. The
		// push rides the newest traced update's trace.
		batch, sc := p.entries, p.sc
	coalesce:
		for len(batch) < pushCap {
			select {
			case more, ok := <-ms.ch:
				if !ok {
					break coalesce
				}
				batch = append(batch, more.entries...)
				if more.sc.Valid() {
					sc = more.sc
				}
			default:
				break coalesce
			}
		}
		n.m.queueDepth.Add(-int64(len(batch)))
		n.gmu.Lock()
		for lazy && n.settled < batch[len(batch)-1].Seq && !n.closed {
			n.cond.Wait()
		}
		for lazy && len(batch) > 0 && batch[len(batch)-1].Seq > n.durable {
			batch = batch[:len(batch)-1]
		}
		skip := ms.lagging || len(batch) == 0
		n.gmu.Unlock()
		if skip {
			continue
		}
		last := batch[len(batch)-1].Seq
		// The push is a child span of the committing caller's trace, and
		// its own context rides the wire so the member's apply joins the
		// trace too.
		span := obs.StartSpan(n.tracer, sc, "replica.push")
		wire := sc
		if span.Active() {
			wire = span.Context()
		}
		var reply PushReply
		start := time.Now()
		err := ms.client.CallRetry(wire, "Replica.Push", &Catchup{Entries: batch}, &reply, n.policy)
		n.m.pushes.Inc()
		// An eager push left before the batch's local sync returned; its
		// event and ack wait for that commit to return — the committer
		// waits for it too, so this costs nothing — and the event is out
		// before the ack wakes the committer. A W > 1 caller's tracer thus
		// sees commit and push in one fixed order: the crash sweep's fs-op
		// indexing runs through the flight recorder.
		n.gmu.Lock()
		for n.settled < last && !n.closed {
			n.cond.Wait()
		}
		n.gmu.Unlock()
		attrs := []obs.Attr{obs.A("origin", n.name), obs.A("seq", last), obs.A("peer", ms.name)}
		if !span.Active() {
			obs.Emit(n.tracer, obs.Event{Name: "replica.push", Dur: time.Since(start), Err: err, Attrs: attrs})
		} else {
			span.End(err, attrs...)
			if err == nil && reply.Node != "" {
				// Echo the member's apply time into our own collector so
				// the single-node timeline shows the remote side of the push.
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
		}
		// The ack is the member's post-apply slot for OUR origin.
		acked := reply.Vector[n.name]
		n.gmu.Lock()
		switch {
		case err != nil, acked < last:
			if !ms.lagging {
				ms.lagging = true
				n.m.laggards.Add(1)
			}
			n.m.pushErrors.Inc()
			n.gmu.Unlock()
			n.kickAE()
		default:
			if acked > ms.acked {
				ms.acked = acked
				n.cond.Broadcast()
			}
			n.gmu.Unlock()
		}
	}
}

// kickAE nudges the anti-entropy loop without blocking.
func (n *Node) kickAE() {
	select {
	case n.aeKick <- struct{}{}:
	default:
	}
}

// antiEntropyLoop is the one background consistency mechanism. Every kick
// and tick first runs a round of the gate while a member is still owed
// (see reconcile). A kick repairs the members marked lagging; a tick
// additionally probes every other connected member — one empty Push each —
// and pushes whatever it turns out to lack, so a member converges with
// no new write to reveal the gap: after it lost its disk, after this node
// restarted and forgot what its members had acked, or when an entry
// reached this node's store by a path other than Apply.
func (n *Node) antiEntropyLoop() {
	defer n.wg.Done()
	t := time.NewTicker(n.group.AntiEntropyEvery)
	defer t.Stop()
	for {
		probe := false
		select {
		case <-n.aeStop:
			return
		case <-n.aeKick:
		case <-t.C:
			probe = true
		}
		n.gmu.Lock()
		var due []*memberState
		for _, ms := range n.members {
			if ms.lagging || probe {
				due = append(due, ms)
			}
		}
		n.gmu.Unlock()
		n.pullOwed()
		for _, ms := range due {
			n.repair(ms)
		}
	}
}

// repair runs rounds of repairRound against one member. A probed member
// gets one round; a lagging one gets rounds until it has covered every seq
// committed so far — re-checked under the lock so a commit racing the
// repair keeps the member lagging and the loop running — or a round fails
// (the next kick or tick retries).
func (n *Node) repair(ms *memberState) {
	for {
		repairedTo, err := n.repairRound(ms)
		n.gmu.Lock()
		if err != nil {
			n.m.aeErrors.Inc()
			n.gmu.Unlock()
			obs.Emit(n.tracer, obs.Event{Name: "replica.group_repair", Err: err, Attrs: []obs.Attr{obs.A("member", ms.name)}})
			return
		}
		n.m.aeRounds.Inc()
		if repairedTo > ms.acked {
			ms.acked = repairedTo
			n.cond.Broadcast()
		}
		if !ms.lagging || ms.acked >= n.commitSeq || n.closed {
			// Caught up with everything committed so far; new commits
			// enqueue normally again.
			if ms.lagging {
				ms.lagging = false
				n.m.laggards.Add(-1)
			}
			n.gmu.Unlock()
			return
		}
		n.gmu.Unlock()
	}
}

// repairRound probes the member with an empty push, whose reply carries its
// vector, then pushes it the catch-up it lacks — the entries our logs hold
// beyond its vector, or our root once they no longer reach back to it — and
// returns the origin seq the member then covers. A repair batch may mix
// origins, so only the member's replied slot for our own origin is an ack
// of local seqs.
func (n *Node) repairRound(ms *memberState) (uint64, error) {
	var probe PushReply
	if err := ms.client.CallRetry(obs.SpanContext{}, "Replica.Push", &Catchup{}, &probe, n.policy); err != nil {
		return 0, err
	}
	c, err := n.catchupFor(probe.Vector)
	if err != nil {
		return 0, err
	}
	if c.Root == nil && len(c.Entries) == 0 {
		return probe.Vector[n.name], nil
	}
	var reply PushReply
	if err := ms.client.CallRetry(obs.SpanContext{}, "Replica.Push", &c, &reply, n.policy); err != nil {
		return 0, err
	}
	if c.Root != nil {
		n.m.aeInstalls.Inc()
	}
	return reply.Vector[n.name], nil
}

// MarkLagging forces a member onto the anti-entropy path (test hook and
// administrative remedy for a member known to have restarted).
func (n *Node) MarkLagging(name string) {
	n.gmu.Lock()
	for _, ms := range n.members {
		if ms.name == name && !ms.lagging {
			ms.lagging = true
			n.m.laggards.Add(1)
		}
	}
	n.gmu.Unlock()
	n.kickAE()
}

// Lagging reports whether the named member is on the anti-entropy path —
// its push stream failed or overflowed — rather than being pushed to.
func (n *Node) Lagging(name string) bool {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	for _, ms := range n.members {
		if ms.name == name {
			return ms.lagging
		}
	}
	return false
}

// Acked reports the highest origin seq each connected member has applied,
// plus, under this node's own name, the highest it has logged and handed
// to the push streams, durable or not yet.
func (n *Node) Acked() map[string]uint64 {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	out := map[string]uint64{n.name: n.commitSeq}
	for _, ms := range n.members {
		out[ms.name] = ms.acked
	}
	return out
}

// memberClients snapshots the connected members' clients.
func (n *Node) memberClients() []*rpc.Client {
	n.gmu.Lock()
	defer n.gmu.Unlock()
	out := make([]*rpc.Client, len(n.members))
	for i, ms := range n.members {
		out[i] = ms.client
	}
	return out
}

// closeGroup stops the pushers and anti-entropy, closes the member clients
// — a call in flight to a dead member fails at once rather than running out
// its retry budget — and wakes any quorum waiter with ErrQuorumUnreachable.
// Idempotent.
func (n *Node) closeGroup() {
	n.gmu.Lock()
	if n.closed {
		n.gmu.Unlock()
		return
	}
	n.closed = true
	members := n.members
	n.cond.Broadcast()
	n.gmu.Unlock()
	close(n.aeStop)
	for _, ms := range members {
		close(ms.ch)
		ms.client.Close()
	}
	n.wg.Wait()
}
