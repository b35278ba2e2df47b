// Package replica replicates a name-server database across several nodes,
// the way the paper's name service handles hard failures: "we already
// replicate the database on multiple name servers spread across the
// network. We respond to a hard error on a particular name server replica
// by restoring its data from another replica. This causes us to lose only
// those updates that had been applied to the damaged replica but not
// propagated to any other replica" (§4).
//
// Each node is a full store (checkpoint + log) whose root embeds the
// replication metadata — a version vector, a Lamport clock, and a bounded
// history of recent updates — so that the metadata is exactly as
// crash-consistent as the data it describes. Every update carries (origin,
// sequence, stamp): a node applies a remote update only in per-origin
// sequence order, and conflicting value writes resolve by last-writer-wins
// on (stamp, origin) — the role timestamps play in the global name service
// this design fed into [Lampson 1986] — so replicas that have exchanged the
// same updates agree on every value regardless of delivery order.
//
// A node is one member of an N-node group (N = 1 is a lone node, the
// paper's pair is N = 2) and one protocol keeps the members together:
//
//   - Propagation: a local commit is handed to every other member's ordered
//     push stream and acknowledged once a write quorum W of members — the
//     origin included — holds it. W = 1 is the paper's rule: ack after one
//     replica, propagate behind the ack.
//   - Anti-entropy: one background loop repairs a member the moment a push
//     to it falls short, and at every interval probes each member's version
//     vector and pushes the missing suffix from its own history (or a whole
//     snapshot once the history is trimmed past it) — the paper's "automatic
//     mechanisms for ensuring the long-term consistency of the name server
//     replicas".
//   - Restore: a node whose disk is damaged beyond local recovery fetches a
//     full snapshot from a peer and rebuilds its store from scratch; the
//     same on-demand pull (SyncWith) lets a stale reader catch itself up.
package replica

import (
	"errors"
	"fmt"
	"sort"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
)

// Root is the replicated database root: the name tree plus replication
// metadata, checkpointed and logged together.
type Root struct {
	Tree *nameserver.Tree
	// Vector maps each origin node to the highest sequence applied here.
	Vector map[string]uint64
	// Clock is the node's Lamport clock: the highest stamp seen. Local
	// updates are stamped Clock+1, so a write that causally follows
	// another always carries a larger stamp, and last-writer-wins picks
	// it everywhere.
	Clock uint64
	// History holds the most recent updates, for anti-entropy; bounded
	// by HistoryCap.
	History    []Entry
	HistoryCap int
}

// SnapshotView implements core.VersionedRoot, so replica nodes serve
// lock-free snapshot enquiries too. The tree contributes its own
// copy-on-write view; the version vector is copied (Replicated.Apply
// mutates it in place). History is a sliding window over an append-only
// backing array that the snapshot shares with the writer, under one
// invariant: the writer stores only at or past every snapshot's end;
// re-slice never rewrites. Each snapshot keeps its own slice header;
// Replicated.Apply appends at the writer's end — which no snapshot's end
// exceeds — and trims by re-slicing the start forward, which stores
// nothing; everything else (install, delta apply) replaces the slice
// wholesale with a fresh array. So no slot inside any snapshot's window
// is written again.
func (r *Root) SnapshotView() any {
	var tv *nameserver.Tree
	if r.Tree == nil {
		tv = nameserver.NewTree()
	} else {
		tv = r.Tree.SnapshotView().(*nameserver.Tree)
	}
	return &Root{
		Tree:       tv,
		Vector:     copyVector(r.Vector),
		Clock:      r.Clock,
		History:    r.History,
		HistoryCap: r.HistoryCap,
	}
}

// Entry is one replicated update: who issued it, its per-origin sequence,
// its Lamport stamp, and the underlying single-shot update.
type Entry struct {
	Origin string
	Seq    uint64
	Stamp  uint64
	Inner  core.Update
}

// update returns the update that applies and logs e.
func (e Entry) update() *Replicated {
	return &Replicated{Origin: e.Origin, Seq: e.Seq, Stamp: e.Stamp, Inner: e.Inner}
}

// DefaultHistoryCap bounds the per-node history when no cap is configured.
const DefaultHistoryCap = 4096

// NewRootWithCap returns a core.Config.NewRoot constructor with the given
// history bound.
func NewRootWithCap(limit int) func() any {
	if limit <= 0 {
		limit = DefaultHistoryCap
	}
	return func() any {
		return &Root{
			Tree:       nameserver.NewTree(),
			Vector:     make(map[string]uint64),
			HistoryCap: limit,
		}
	}
}

func init() {
	pickle.Register(&Root{})
	pickle.Register(Entry{})
	core.RegisterUpdate(&Replicated{})
}

// ErrAlreadyApplied marks an update the node has already seen; callers
// treat it as success.
var ErrAlreadyApplied = errors.New("replica: update already applied")

// ErrSequenceGap marks an update that arrived ahead of its predecessors
// from the same origin; anti-entropy must fill the gap first.
var ErrSequenceGap = errors.New("replica: sequence gap")

// Replicated wraps an inner update with its replication stamps; it is the
// only update type a replicated store logs.
type Replicated struct {
	Origin string
	Seq    uint64
	Stamp  uint64
	Inner  core.Update
}

// Verify implements core.Update: per-origin dedupe and ordering, then the
// inner update's own preconditions against the tree.
func (u *Replicated) Verify(root any) error {
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	if u.Origin == "" || u.Seq == 0 {
		return fmt.Errorf("replica: update missing origin/sequence stamp")
	}
	applied := r.Vector[u.Origin]
	switch {
	case u.Seq <= applied:
		return fmt.Errorf("%w: %s/%d (have %d)", ErrAlreadyApplied, u.Origin, u.Seq, applied)
	case u.Seq > applied+1:
		return fmt.Errorf("%w: %s/%d (have %d)", ErrSequenceGap, u.Origin, u.Seq, applied)
	}
	if u.Inner == nil {
		return fmt.Errorf("replica: nil inner update")
	}
	return u.Inner.Verify(r.Tree)
}

// Apply implements core.Update. Value writes (SetValue) resolve conflicts
// by last-writer-wins on (Stamp, Origin): two replicas that have seen the
// same set of updates agree on every value no matter the delivery order.
// Structural updates (deletes, moves, subtree puts) apply in arrival
// order; a concurrent structural conflict resolves to a valid — but
// order-dependent — state, as in the paper's system before its timestamped
// successor.
func (u *Replicated) Apply(root any) error {
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	if u.Stamp > r.Clock {
		r.Clock = u.Stamp
	}
	if set, ok := u.Inner.(*nameserver.SetValue); ok && u.Stamp > 0 {
		n := r.Tree.EnsureNode(set.Path)
		if newerWrite(u.Stamp, u.Origin, n) {
			n.Value = set.Value
			n.HasValue = true
			n.Stamp = u.Stamp
			n.StampBy = u.Origin
		}
	} else if err := u.Inner.Apply(r.Tree); err != nil {
		return err
	}
	u.record(r)
	return nil
}

// record advances u's vector slot and appends u to the history window.
func (u *Replicated) record(r *Root) {
	if r.Vector == nil {
		r.Vector = make(map[string]uint64)
	}
	r.Vector[u.Origin] = u.Seq
	r.History = append(r.History, Entry{Origin: u.Origin, Seq: u.Seq, Stamp: u.Stamp, Inner: u.Inner})
	limit := r.HistoryCap
	if limit <= 0 {
		limit = DefaultHistoryCap
	}
	if len(r.History) > limit {
		// Slide the window forward over the backing array instead of
		// copying it: the only copy left is append's own amortised
		// reallocation once the slack behind the window runs out.
		r.History = r.History[len(r.History)-limit:]
	}
}

// newerWrite reports whether a write stamped (stamp, origin) supersedes the
// value currently on n.
func newerWrite(stamp uint64, origin string, n *nameserver.Node) bool {
	if !n.HasValue && n.Stamp == 0 {
		return true
	}
	if stamp != n.Stamp {
		return stamp > n.Stamp
	}
	return origin >= n.StampBy
}

func rootOf(root any) (*Root, error) {
	r, ok := root.(*Root)
	if !ok {
		return nil, fmt.Errorf("replica: root is %T, not *replica.Root", root)
	}
	if r.Tree == nil {
		r.Tree = nameserver.NewTree()
	}
	return r, nil
}

// missingFrom returns the entries of r.History that a holder of vector
// lacks, in per-origin sequence order, and whether the history has already
// dropped entries the caller needs (in which case only a full snapshot can
// help).
func (r *Root) missingFrom(vector map[string]uint64) (entries []Entry, needFull bool) {
	// The usual answer to a probe is "nothing": find that out from the
	// vectors before scanning the history.
	behind := false
	for origin, have := range r.Vector {
		if vector[origin] < have {
			behind = true
			break
		}
	}
	if !behind {
		return nil, false
	}
	// Oldest surviving history seq per origin, to detect trimmed gaps.
	oldest := map[string]uint64{}
	for _, e := range r.History {
		if o, ok := oldest[e.Origin]; !ok || e.Seq < o {
			oldest[e.Origin] = e.Seq
		}
	}
	for origin, have := range r.Vector {
		theirs := vector[origin]
		if theirs >= have {
			continue
		}
		o, inHistory := oldest[origin]
		if !inHistory || o > theirs+1 {
			// History no longer reaches back to theirs+1.
			return nil, true
		}
	}
	for _, e := range r.History {
		if e.Seq > vector[e.Origin] {
			entries = append(entries, e)
		}
	}
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].Origin != entries[j].Origin {
			return entries[i].Origin < entries[j].Origin
		}
		return entries[i].Seq < entries[j].Seq
	})
	return entries, false
}

// copyVector snapshots a version vector.
func copyVector(v map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}
