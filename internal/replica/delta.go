// Incremental checkpoint support for replicated roots. The tree diff is
// delegated to nameserver.TreeDelta; the replication metadata rides along:
// the version vector and clock are tiny and travel as full copies, and the
// history — the one piece that can rival the tree in size — ships as the
// appended suffix plus a dropped-prefix count, reconstructed against the
// previous snapshot's history on apply.
package replica

import (
	"fmt"

	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
)

// RootDelta is the pickled difference between two snapshot views of a
// replicated Root.
type RootDelta struct {
	// Tree transforms the previous snapshot's tree into the current one.
	Tree *nameserver.TreeDelta
	// Vector and Clock are full copies; a version vector has one entry per
	// node, negligible next to the tree.
	Vector     map[string]uint64
	Clock      uint64
	HistoryCap int

	// History reconstruction: drop HistoryDropped entries from the front
	// of the previous history, then append HistoryAppended. When
	// HistoryFull is set the previous history is discarded and
	// HistoryAppended is the entire new history (the defensive fallback
	// when the append-only relation between the two histories cannot be
	// verified).
	HistoryDropped  int
	HistoryAppended []Entry
	HistoryFull     bool
}

func init() {
	pickle.Register(&RootDelta{})
}

// DeltaOps reports the number of changed subtrees, for checkpoint headers.
func (d *RootDelta) DeltaOps() int {
	if d.Tree == nil {
		return 0
	}
	return d.Tree.DeltaOps()
}

func vectorSum(v map[string]uint64) uint64 {
	var s uint64
	for _, x := range v {
		s += x
	}
	return s
}

func entrySame(a, b Entry) bool {
	return a.Origin == b.Origin && a.Seq == b.Seq && a.Stamp == b.Stamp
}

// DeltaSince implements the core store's DeltaRoot contract: it returns a
// *RootDelta transforming prev — an earlier SnapshotView of this root —
// into r's state.
//
// The history delta leans on an invariant of Replicated.Apply: each apply
// appends exactly one history entry and raises exactly one vector slot by
// one, so the number of entries appended between two snapshots equals the
// difference of their vector sums. That count splits the current history
// into a surviving prefix (a suffix of the previous history) and the
// appended suffix. The split is verified against the previous history's
// boundary entries; if anything disagrees (say the history was replaced
// wholesale by a restore), the delta falls back to carrying the full
// history.
func (r *Root) DeltaSince(prev any) (any, error) {
	p, ok := prev.(*Root)
	if !ok {
		return nil, fmt.Errorf("replica: delta base is %T, not *replica.Root", prev)
	}
	curTree, prevTree := r.Tree, p.Tree
	if curTree == nil {
		curTree = nameserver.NewTree()
	}
	if prevTree == nil {
		prevTree = nameserver.NewTree()
	}
	td, err := curTree.DeltaSince(prevTree)
	if err != nil {
		return nil, err
	}
	d := &RootDelta{
		Tree:       td.(*nameserver.TreeDelta),
		Vector:     copyVector(r.Vector),
		Clock:      r.Clock,
		HistoryCap: r.HistoryCap,
	}

	appended := vectorSum(r.Vector) - vectorSum(p.Vector)
	if appended >= uint64(len(r.History)) {
		// Every surviving entry is new since prev (or the relation is
		// unverifiable); ship the whole history and drop all of prev's.
		d.HistoryDropped = len(p.History)
		d.HistoryAppended = append([]Entry(nil), r.History...)
		if appended > uint64(len(r.History)) && len(r.History) > 0 {
			// Trim has discarded some of the appended entries; prev's
			// suffix is simply gone. Dropping all of prev and appending
			// all of cur still yields exactly cur's history.
			d.HistoryFull = true
		}
		return d, nil
	}

	survive := len(r.History) - int(appended)
	dropped := len(p.History) - survive
	verified := dropped >= 0
	if verified && survive > 0 {
		// The surviving prefix of cur must be the tail of prev. Entries
		// are immutable once appended, so checking both boundary entries
		// suffices to catch any wholesale replacement.
		verified = entrySame(r.History[0], p.History[dropped]) &&
			entrySame(r.History[survive-1], p.History[len(p.History)-1])
	}
	if !verified {
		d.HistoryFull = true
		d.HistoryAppended = append([]Entry(nil), r.History...)
		return d, nil
	}
	d.HistoryDropped = dropped
	d.HistoryAppended = append([]Entry(nil), r.History[survive:]...)
	return d, nil
}

// ApplyDelta implements the core store's DeltaRoot contract: apply a
// *RootDelta produced by DeltaSince. r must hold the previous snapshot's
// state (the recovery path guarantees this: the chain's base checkpoint
// loads first, then each delta applies in version order).
func (r *Root) ApplyDelta(delta any) error {
	d, ok := delta.(*RootDelta)
	if !ok || d == nil {
		return fmt.Errorf("replica: delta is %#v, not a *replica.RootDelta", delta)
	}
	if r.Tree == nil {
		r.Tree = nameserver.NewTree()
	}
	if d.Tree != nil {
		if err := r.Tree.ApplyDelta(d.Tree); err != nil {
			return err
		}
	}
	r.Vector = copyVector(d.Vector)
	r.Clock = d.Clock
	r.HistoryCap = d.HistoryCap
	if d.HistoryFull {
		r.History = append([]Entry(nil), d.HistoryAppended...)
		return nil
	}
	drop := d.HistoryDropped
	if drop > len(r.History) {
		drop = len(r.History)
	}
	h := make([]Entry, 0, len(r.History)-drop+len(d.HistoryAppended))
	h = append(h, r.History[drop:]...)
	h = append(h, d.HistoryAppended...)
	r.History = h
	return nil
}
