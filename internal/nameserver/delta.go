// Incremental checkpoint support: what turns the tree one checkpoint
// recorded into the tree the next records, as a pickleable value.
//
// The store keeps no earlier tree to compare with. The log the checkpoint
// retires holds every update applied since the previous one, and DeltaOf
// folds them: each marks the names it wrote in a trie — a Set its name, a
// Delete, a Put and both ends of a Move each name whose subtree it removed
// or replaced, dropping every mark below — and each marked name then
// contributes its state in the snapshot being checkpointed: its value for a
// Set, its subtree or its absence for the rest. The ops come out in label
// order, so the same log always pickles to the same delta, and their number
// follows the log range, not the tree. (A moved subtree is carried whole, as
// the PutSubtree that created it was.)
package nameserver

import (
	"errors"
	"fmt"
	"slices"

	"smalldb/internal/core"
	"smalldb/internal/pickle"
)

// Delta op kinds.
const (
	// DeltaSet sets the scalar fields (value, presence, stamps) of the
	// node at Path, creating it and intermediates if absent. Children are
	// untouched.
	DeltaSet uint8 = 1
	// DeltaDelete removes the subtree at Path.
	DeltaDelete uint8 = 2
	// DeltaPut replaces the subtree at Path wholesale with Subtree.
	DeltaPut uint8 = 3
)

// DeltaOp is one step of a TreeDelta. Ops within a delta touch disjoint
// or scalar-vs-structure-disjoint paths, so they commute; apply order is
// irrelevant.
type DeltaOp struct {
	Op   uint8
	Path []string

	// DeltaSet payload.
	Value    string
	HasValue bool
	Stamp    uint64
	StampBy  string

	// DeltaPut payload.
	Subtree *Node
}

// TreeDelta is the pickled difference between two snapshot views of a
// Tree: applying Ops to the older view's state yields the newer view's.
type TreeDelta struct {
	Ops []DeltaOp
}

func init() {
	pickle.Register(&TreeDelta{})
	pickle.Register(DeltaOp{})
}

// DeltaOps reports the number of subtree operations in the delta — the
// checkpoint header's subtree count.
func (d *TreeDelta) DeltaOps() int { return len(d.Ops) }

// DeltaOf implements the core store's DeltaRoot contract: it folds the
// name-tree updates applied since an earlier view into a *TreeDelta that
// turns that view's state into t's. t must be immutable for the duration
// (snapshot views are). An update of any other type is refused.
func (t *Tree) DeltaOf(updates func(each func(core.Update) error) error) (any, error) {
	var w written
	if err := updates(w.add); err != nil {
		return nil, err
	}
	d := &TreeDelta{}
	if _, err := w.fold(Arc{Child: t.Root}, nil, d); err != nil {
		return nil, err
	}
	return d, nil
}

// written is a trie of the names a log range wrote: set marks a name whose
// value a Set wrote, whole one whose subtree an update removed or replaced,
// below which nothing is marked, and made one that an update in the range
// may have created: a Set, a Put or a Move there or below.
type written struct {
	kids             map[string]*written
	set, whole, made bool
}

// add marks the names u wrote.
func (w *written) add(u core.Update) error {
	switch u := u.(type) {
	case *SetValue:
		w.mark(u.Path, false, true)
	case *DeleteSubtree:
		w.mark(u.Path, true, false)
	case *PutSubtree:
		w.mark(u.Path, true, true)
	case *Move:
		w.mark(u.From, true, false)
		w.mark(u.To, true, true)
	default:
		return fmt.Errorf("nameserver: a %T cannot be folded into a delta", u)
	}
	return nil
}

// mark records that the name path was written, whole or its value alone,
// by an update that makes the names on its way if made.
func (w *written) mark(path []string, whole, made bool) {
	for _, label := range path {
		if w.whole {
			return
		}
		w.made = w.made || made
		next := w.kids[label]
		if next == nil {
			if w.kids == nil {
				w.kids = map[string]*written{}
			}
			next = &written{}
			w.kids[label] = next
		}
		w = next
	}
	w.made = w.made || made
	if whole {
		w.whole, w.kids = true, nil
	} else {
		w.set = true
	}
}

// fold appends to d, in label order, the state of every name w marks at and
// below path, to which a leads in the later tree, and reports whether the
// name at path is there once d applies to the earlier state.
func (w *written) fold(a Arc, path []string, d *TreeDelta) (there bool, err error) {
	switch {
	case w.whole && len(path) == 0:
		return false, errors.New("nameserver: a logged update replaced the root")
	case w.whole && a.exists():
		d.Ops = append(d.Ops, DeltaOp{Op: DeltaPut, Path: path, Subtree: a.Node()})
		return true, nil
	case w.whole:
		d.Ops = append(d.Ops, DeltaOp{Op: DeltaDelete, Path: path})
		return false, nil
	case !a.exists():
		return false, fmt.Errorf("nameserver: %s was written, and is gone with no update removing it", JoinPath(path))
	}
	at := len(d.Ops)
	if w.set {
		d.Ops = append(d.Ops, setOp(a, path))
	}
	labels := make([]string, 0, len(w.kids))
	for label := range w.kids {
		labels = append(labels, label)
	}
	slices.Sort(labels)
	there = w.set || len(path) == 0 // the root always is
	for _, label := range labels {
		k, err := w.kids[label].fold(a.step(label), childPath(path, label), d)
		if err != nil {
			return false, err
		}
		there = there || k
	}
	if !there && w.made {
		// The range may have made this name on the way to one it then
		// deleted, and no op below makes it: set it, so the delta does.
		d.Ops = slices.Insert(d.Ops, at, setOp(a, path))
	}
	return true, nil // a name the range did not make was there before it
}

// setOp returns the DeltaSet giving path the scalars of the name a leads to.
func setOp(a Arc, path []string) DeltaOp {
	n := a.Node()
	return DeltaOp{
		Op: DeltaSet, Path: path, // nil at the root, else childPath's own array
		Value: n.Value, HasValue: n.HasValue,
		Stamp: n.Stamp, StampBy: n.StampBy,
	}
}

// childPath returns p extended by label, in an array of its own.
func childPath(p []string, label string) []string {
	return append(p[:len(p):len(p)], label)
}

// ApplyDelta implements the core store's DeltaRoot contract: apply a
// *TreeDelta produced by DeltaOf to this tree. It is called on the
// working root during recovery (after the chain's base loads, before log
// replay) and respects the copy-on-write discipline, so it is also safe
// once snapshots exist.
func (t *Tree) ApplyDelta(delta any) error {
	d, ok := delta.(*TreeDelta)
	if !ok || d == nil {
		return fmt.Errorf("nameserver: delta is %#v, not a *TreeDelta", delta)
	}
	seen := map[*Node]bool{} // across ops: a pickle may share a node between two puts' subtrees
	for i := range d.Ops {
		op := &d.Ops[i]
		switch op.Op {
		case DeltaSet:
			if err := checkDepth(op.Path, 0); err != nil {
				return err
			}
			t.set(op.Path, Node{Value: op.Value, HasValue: op.HasValue, Stamp: op.Stamp, StampBy: op.StampBy}, true, false)
		case DeltaDelete:
			if len(op.Path) == 0 {
				return fmt.Errorf("nameserver: delta deletes the root")
			}
			dir, label := split(op.Path)
			if parent := t.cowPath(dir); parent != nil {
				parent.unbind(label)
			}
		case DeltaPut:
			if len(op.Path) == 0 {
				return fmt.Errorf("nameserver: delta replaces the root")
			}
			if op.Subtree == nil {
				return fmt.Errorf("nameserver: delta put with nil subtree at %s", JoinPath(op.Path))
			}
			_, height, err := inspect(op.Subtree, seen)
			if err == nil {
				err = checkDepth(op.Path, height)
			}
			if err != nil {
				return fmt.Errorf("%w: delta put at %s", err, JoinPath(op.Path))
			}
			// The decoded subtree is owned by the delta; share it. Its
			// nodes decode with born == 0, so later mutations copy them
			// — exactly the discipline for checkpoint-loaded nodes.
			dir, label := split(op.Path)
			t.ensure(dir).bind(arcTo(label, op.Subtree))
		default:
			return fmt.Errorf("nameserver: unknown delta op %d at %s", op.Op, JoinPath(op.Path))
		}
	}
	return nil
}
