// A node is one member of an N-node replica group. The node an update
// arrives at commits it locally (it is the update's origin — the
// single-writer store underneath is untouched), fans the entry out to every
// other member through per-member ordered push streams, and acks the client
// once a configurable write quorum W of members — the origin counts as one —
// have synced and applied it. W = 1 is the paper's §4 rule, ack after one
// replica: the wait is over before it starts and the streams run behind the
// ack. N = 1 is the lone node, a pair is N = 2. Members that fall behind
// (partition, crash, full queue) are marked lagging and repaired in the
// background by a push-style anti-entropy loop driven from the origin's own
// history; the per-member streams stay ordered so a push can never be
// silently skipped as a sequence gap and still counted as an ack.

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
	n.gmu.Unlock()
	n.wg.Add(1)
	go n.pusher(ms)
	return nil
}

// applyAll is every local update's path: commit locally through one epoch
// barrier, hand the committed entries to each member's stream, and ack once
// the write quorum holds them. Prefix semantics follow
// core.Store.ApplyBatch: on a batch error the committed prefix still fans
// out (and is quorum-waited) and the batch error is returned; if the quorum
// wait fails too, the errors are joined so the caller sees both.
func (n *Node) applyAll(inners []core.Update, sc obs.SpanContext) error {
	entries, batchErr := n.commitLocal(inners, sc)
	if len(entries) == 0 {
		return batchErr
	}
	committed := time.Now()
	last := entries[len(entries)-1].Seq
	n.gmu.Lock()
	if n.closed {
		n.gmu.Unlock()
		return fmt.Errorf("%w: node closed", ErrQuorumUnreachable)
	}
	if last > n.commitSeq {
		n.commitSeq = last
	}
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
	if err := n.awaitQuorum(last, committed); err != nil {
		// Surface both failures: the caller must learn that the suffix was
		// never committed anywhere (batchErr) AND that even the committed
		// prefix is not quorum-durable (err).
		return errors.Join(err, batchErr)
	}
	return batchErr
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
// member's replied vector slot climbs without silent gap-skips. Any push
// failure (or a reply that does not cover the batch) flips the member to
// lagging; from then on the pusher discards its queue — burning the push
// budget per queued batch against a dead member would stall repair — and
// anti-entropy owns the member until it has caught back up.
func (n *Node) pusher(ms *memberState) {
	defer n.wg.Done()
	for p := range ms.ch {
		// Coalesce whatever else is already queued into this push: one
		// RPC absorbs the whole backlog, so a member running behind the
		// commit rate pays per-push cost once per burst instead of once
		// per commit. Order is preserved — the queue is the stream. The
		// push rides the newest traced update's trace.
		batch, sc := p.entries, p.sc
	coalesce:
		for {
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
		skip := ms.lagging
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
		err := ms.client.CallRetryTraced(wire, "Replica.Push", &PushArgs{Entries: batch}, &reply, n.pushPolicy)
		n.m.pushes.Inc()
		// The event is out before the ack below wakes the committer, so a
		// W > 1 caller's tracer sees commit and push in one fixed order —
		// the crash sweep's fs-op indexing runs through the flight recorder.
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
		// The ack is the member's post-apply slot for OUR origin (stream
		// batches are all local-origin entries); prefer the replied vector
		// over Seq, which only names the last entry's origin.
		acked := reply.Seq
		if reply.Vector != nil {
			acked = reply.Vector[n.name]
		}
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

// antiEntropyLoop is the one background consistency mechanism. A kick
// repairs the members marked lagging; a tick additionally probes every
// other connected member — one Vector call each — and pushes whatever it
// turns out to lack, so a member converges with no new write to reveal the
// gap: after it lost its disk, after this node restarted and forgot what
// its members had acked, or when an entry reached this node's store by a
// path other than Apply.
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
		for _, ms := range due {
			n.repair(ms)
		}
	}
}

// repair runs rounds against one member: fetch its vector, push the
// missing suffix from our own history (or a full snapshot when the history
// has been trimmed past the member's vector). A probed member gets one
// round; a lagging one gets rounds until it has covered every seq committed
// so far — re-checked under the lock so a commit racing the repair keeps
// the member lagging and the loop running — or a round fails (the next kick
// or tick retries).
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

// repairRound ships one round of missing entries (or a snapshot) to the
// member and returns the origin seq the member then covers.
func (n *Node) repairRound(ms *memberState) (uint64, error) {
	var vec VectorReply
	if err := ms.client.CallRetry("Replica.Vector", &VectorArgs{}, &vec, n.syncPolicy); err != nil {
		return 0, err
	}
	var entries []Entry
	var needFull bool
	err := n.store.View(func(root any) error {
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
		snap, err := n.snapshotRoot()
		if err != nil {
			return 0, err
		}
		var reply InstallReply
		if err := ms.client.CallRetry("Replica.Install", &InstallArgs{Root: snap}, &reply, n.syncPolicy); err != nil {
			return 0, err
		}
		n.m.aeInstalls.Inc()
		return snap.Vector[n.name], nil
	}
	if len(entries) == 0 {
		return vec.Vector[n.name], nil
	}
	var reply PushReply
	if err := ms.client.CallRetry("Replica.Push", &PushArgs{Entries: entries}, &reply, n.syncPolicy); err != nil {
		return 0, err
	}
	// Repair batches are multi-origin and (origin, seq)-sorted, so
	// reply.Seq may name ANOTHER origin's slot; trusting it here would
	// inflate ms.acked and let awaitQuorum count acks the member never
	// received. Only the member's replied vector slot for our own origin
	// is an ack of local seqs; without a vector, fall back to the slot
	// the member proved before the push rather than guess.
	if reply.Vector != nil {
		return reply.Vector[n.name], nil
	}
	return vec.Vector[n.name], nil
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

// Acked reports the highest origin seq each connected member has applied,
// plus this node's own committed seq under its own name.
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
