// Package replica replicates a name-server database across several nodes,
// the way the paper's name service handles hard failures: "we already
// replicate the database on multiple name servers spread across the
// network. We respond to a hard error on a particular name server replica
// by restoring its data from another replica. This causes us to lose only
// those updates that had been applied to the damaged replica but not
// propagated to any other replica" (§4).
//
// Each node is a name server (nameserver.Server) whose commit is
// replicated: its enquiries and update entry points are the Server's, and
// only how an update commits is this package's. Its store (checkpoint +
// log) has a root that embeds the replication metadata — a version vector
// and a Lamport clock — so that the metadata is exactly as crash-consistent
// as the data it describes; the recent updates themselves are the ones its
// logs hold, archived past checkpoints while a member lacks one the node
// originated. Every update carries (origin, sequence, stamp): a node
// applies a remote update only in per-origin sequence order, each takes its
// slot even where it no longer applies, and conflicting value writes
// resolve by last-writer-wins on (stamp, origin) — the role timestamps play
// in the global name service this design fed into [Lampson 1986] — so
// replicas that have exchanged the same updates agree on every value
// regardless of delivery order.
//
// A node is one member of an N-node group (N = 1 is a lone node, the
// paper's pair is N = 2) and one protocol keeps the members together. Its
// unit is the catch-up (Catchup): the entries a receiver's version vector
// lacks, read from the sender's logs, or — once those no longer reach back
// to them — the sender's whole root. Two messages carry it: Push brings one
// into a member, and Pull asks a member for one.
//
//   - Propagation: a local commit is handed to every other member's ordered
//     push stream and acknowledged once a write quorum W of members — the
//     origin included — holds it. W = 1 is the paper's rule: ack after one
//     replica, propagate behind the ack.
//   - Anti-entropy: one background loop repairs a member the moment a push
//     to it falls short, and at every interval probes each member's version
//     vector with an empty Push and pushes the catch-up it lacks — the
//     paper's "automatic mechanisms for ensuring the long-term consistency
//     of the name server replicas".
//   - Restore: a node whose disk is damaged beyond local recovery pulls a
//     peer's root and rebuilds its store from it; the same on-demand pull
//     (SyncWith) lets a stale reader catch itself up.
package replica

import (
	"errors"
	"fmt"
	"reflect"

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
}

// NameTree returns the name tree the root keeps, for nameserver.TreeOf:
// the Server's enquiries read it, while a raw name-tree update is still
// refused by a replica store.
func (r *Root) NameTree() *nameserver.Tree { return r.Tree }

// SnapshotView implements core.VersionedRoot, so replica nodes serve
// lock-free snapshot enquiries too. The tree contributes its own
// copy-on-write view; the version vector is copied (Replicated.Apply
// mutates it in place).
func (r *Root) SnapshotView() any {
	var tv *nameserver.Tree
	if r.Tree == nil {
		tv = nameserver.NewTree()
	} else {
		tv = r.Tree.SnapshotView().(*nameserver.Tree)
	}
	return &Root{Tree: tv, Vector: copyVector(r.Vector), Clock: r.Clock}
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

// NewRoot is the core.Config.NewRoot of a replica store: an empty tree and
// vector.
func NewRoot() any {
	return &Root{Tree: nameserver.NewTree(), Vector: make(map[string]uint64)}
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

// ErrMalformedEntry refuses what a catch-up can decode but no node sends: an
// update that lacks its origin, its sequence number or its inner update —
// nil, or a nil pointer — a root without a tree, or a root with entries.
var ErrMalformedEntry = errors.New("replica: malformed update or catch-up")

// Replicated wraps an inner update with its replication stamps; it is the
// only update type a replicated store logs.
type Replicated struct {
	Origin string
	Seq    uint64
	Stamp  uint64
	Inner  core.Update
	// local marks an update this node originates, not yet stamped: Verify
	// stamps it. refused is why Apply took a remote update's slot without
	// applying it. Unexported, so no log entry or push carries either.
	local   bool
	refused error
}

// Verify implements core.Update: a local update is stamped from the root it
// applies to, under the store's update lock, so seq order is log order; then
// per-origin dedupe and ordering. Only a local update answers for its inner
// update's preconditions: a remote one was valid where it committed, and
// Apply decides what it does here.
func (u *Replicated) Verify(root any) error {
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	if u.local {
		u.Seq, u.Stamp = r.Vector[u.Origin]+1, r.Clock+1
	}
	in := reflect.ValueOf(u.Inner)
	if u.Origin == "" || u.Seq == 0 || !in.IsValid() || in.Kind() == reflect.Pointer && in.IsNil() {
		return fmt.Errorf("%w: %q/%d", ErrMalformedEntry, u.Origin, u.Seq)
	}
	applied := r.Vector[u.Origin]
	switch {
	case u.Seq <= applied:
		return fmt.Errorf("%w: %s/%d (have %d)", ErrAlreadyApplied, u.Origin, u.Seq, applied)
	case u.Seq > applied+1:
		return fmt.Errorf("%w: %s/%d (have %d)", ErrSequenceGap, u.Origin, u.Seq, applied)
	case u.local:
		return u.Inner.Verify(r.Tree)
	}
	return nil
}

// Apply implements core.Update. Value writes (SetValue) resolve conflicts
// by last-writer-wins on (Stamp, Origin): two replicas that have seen the
// same set of updates agree on every value no matter the delivery order.
// Structural updates (deletes, moves, subtree puts) apply in arrival
// order; a concurrent structural conflict resolves to a valid — but
// order-dependent — state, as in the paper's system before its timestamped
// successor. Apply is total on a remote update: one whose inner
// precondition fails here (say, a delete of a name another origin deleted
// first) still takes its slot and raises the clock, as a no-op, so its
// origin's later updates are not held behind it. Replay calls only Apply,
// so Apply runs that check itself.
func (u *Replicated) Apply(root any) error {
	r, err := rootOf(root)
	if err != nil {
		return err
	}
	if u.Stamp > r.Clock {
		r.Clock = u.Stamp
	}
	if !u.local { // Verify has held a local update to its precondition
		u.refused = u.Inner.Verify(r.Tree)
	}
	set, isSet := u.Inner.(*nameserver.SetValue)
	switch {
	case u.refused != nil:
		// A no-op here: the slot is still taken below.
	case isSet && u.Stamp > 0:
		r.Tree.SetStamped(set.Path, set.Value, u.Stamp, u.Origin)
	default:
		if err := u.Inner.Apply(r.Tree); err != nil {
			return err
		}
	}
	if r.Vector == nil {
		r.Vector = make(map[string]uint64)
	}
	r.Vector[u.Origin] = u.Seq
	return nil
}

// entry returns the entry u logs.
func (u *Replicated) entry() Entry {
	return Entry{Origin: u.Origin, Seq: u.Seq, Stamp: u.Stamp, Inner: u.Inner}
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

// vectorSum counts the updates a version vector covers.
func vectorSum(v map[string]uint64) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

// copyVector snapshots a version vector.
func copyVector(v map[string]uint64) map[string]uint64 {
	out := make(map[string]uint64, len(v))
	for k, val := range v {
		out[k] = val
	}
	return out
}
