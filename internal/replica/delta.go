// Incremental checkpoint support for replicated roots. The tree's part is
// nameserver's fold of the inner updates the retiring log holds; the
// replication metadata rides along: the version vector and clock are tiny
// and travel as full copies, and the history — the one piece that can rival
// the tree in size — ships as the appended suffix plus a dropped-prefix
// count, reconstructed against the previous checkpoint's history on apply.
// What the fold needs of that history is its length, the root's DeltaMark.
package replica

import (
	"fmt"

	"smalldb/internal/core"
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
	// HistoryAppended is the entire new history: older builds, which
	// compared two views' histories, set it when they could not relate
	// them; a fold never needs to.
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

// DeltaMark implements the core store's DeltaRoot contract: the length of
// the history window, which the next delta's HistoryDropped counts from.
func (r *Root) DeltaMark() int { return len(r.History) }

// DeltaOf implements the core store's DeltaRoot contract: it folds the
// updates applied since an earlier view — whose history window held mark
// entries — into a *RootDelta that turns that view's state into r's.
//
// The tree's part is the inner updates' fold. The history's leans on an
// invariant of Replicated.Apply: each apply appends exactly one entry to
// the window, so of r's window the last as many entries as the range holds
// Replicated updates are new, and the rest are the earlier window's tail.
// An install, which replaces the root wholesale, is refused: the checkpoint
// writes a full image.
func (r *Root) DeltaOf(mark int, updates func(each func(core.Update) error) error) (any, error) {
	tree := r.Tree
	if tree == nil {
		tree = nameserver.NewTree()
	}
	appended := 0
	td, err := tree.DeltaOf(0, func(each func(core.Update) error) error {
		return updates(func(u core.Update) error {
			ru, ok := u.(*Replicated)
			if !ok {
				return fmt.Errorf("replica: a %T cannot be folded into a delta", u)
			}
			appended++
			return each(ru.Inner)
		})
	})
	if err != nil {
		return nil, err
	}
	d := &RootDelta{
		Tree:       td.(*nameserver.TreeDelta),
		Vector:     copyVector(r.Vector),
		Clock:      r.Clock,
		HistoryCap: r.HistoryCap,
	}
	survive := max(len(r.History)-appended, 0)
	if survive > mark {
		return nil, fmt.Errorf("replica: history of %d entries holds %d more than %d earlier plus %d appended", len(r.History), survive-mark, mark, appended)
	}
	d.HistoryDropped = mark - survive
	d.HistoryAppended = append([]Entry(nil), r.History[survive:]...)
	return d, nil
}

// ApplyDelta implements the core store's DeltaRoot contract: apply a
// *RootDelta produced by DeltaOf. r must hold the previous snapshot's
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
