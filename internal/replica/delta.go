// Incremental checkpoint support for replicated roots. The tree's part is
// nameserver's fold of the inner updates the retiring log holds; the
// replication metadata rides along: the version vector and clock are tiny
// and travel as full copies.
package replica

import (
	"fmt"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
)

// RootDelta is the pickled difference between two snapshot views of a
// replicated Root. A delta written while the root kept a history window
// also carries that window's fields, which decoding skips.
type RootDelta struct {
	// Tree transforms the previous snapshot's tree into the current one.
	Tree *nameserver.TreeDelta
	// Vector and Clock are full copies; a version vector has one entry per
	// node, negligible next to the tree.
	Vector map[string]uint64
	Clock  uint64
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

// DeltaOf implements the core store's DeltaRoot contract: it folds the
// updates applied since an earlier view into a *RootDelta that turns that
// view's state into r's: the inner updates' fold, and r's vector and clock.
// An install, which replaces the root wholesale, is refused: the checkpoint
// writes a full image.
func (r *Root) DeltaOf(updates func(each func(core.Update) error) error) (any, error) {
	td, err := r.Tree.DeltaOf(func(each func(core.Update) error) error {
		return updates(func(u core.Update) error {
			ru, ok := u.(*Replicated)
			if !ok {
				return fmt.Errorf("replica: a %T cannot be folded into a delta", u)
			}
			return each(ru.Inner)
		})
	})
	if err != nil {
		return nil, err
	}
	return &RootDelta{Tree: td.(*nameserver.TreeDelta), Vector: copyVector(r.Vector), Clock: r.Clock}, nil
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
	return nil
}
