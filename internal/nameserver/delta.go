// Incremental checkpoint support: the difference between two published
// snapshots of a Tree, as a pickleable value.
//
// Discovery rides on the copy-on-write discipline: a mutation rebuilds
// every node along its path and shares everything else, so between two
// snapshot views a subtree whose root pointer is unchanged is content-
// identical, and the diff needs to descend only where pointers differ —
// cost proportional to the churn between the snapshots, not to the tree.
// (The reverse implication does not hold: a Move reinstalls a shared
// subtree pointer under a new parent, so the diff sees a changed parent
// and pickles the moved subtree in full — a move costs its subtree's
// size, the same as the PutSubtree that created it.)
package nameserver

import (
	"fmt"

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

	visited int // arcs DeltaSince compared one by one: what it did not skip
}

func init() {
	pickle.Register(&TreeDelta{})
	pickle.Register(DeltaOp{})
}

// DeltaOps reports the number of subtree operations in the delta — the
// checkpoint header's subtree count.
func (d *TreeDelta) DeltaOps() int { return len(d.Ops) }

// DeltaSince implements the core store's DeltaRoot contract: it returns a
// *TreeDelta transforming prev — an earlier SnapshotView of this tree —
// into t's state. Both trees must be immutable for the duration (snapshot
// views are). The walk skips every pointer-shared subtree, so its cost is
// proportional to what changed between the two views.
func (t *Tree) DeltaSince(prev any) (any, error) {
	p, ok := prev.(*Tree)
	if !ok {
		return nil, fmt.Errorf("nameserver: delta base is %T, not *Tree", prev)
	}
	d := &TreeDelta{}
	oldRoot, newRoot := p.Root, t.Root
	if oldRoot == nil {
		oldRoot = &Node{}
	}
	if newRoot == nil {
		newRoot = &Node{}
	}
	diffNode(oldRoot, newRoot, nil, d)
	return d, nil
}

// diffNode appends the ops turning old into new to d. old and new are both
// non-nil and pointer-distinct (callers handle the other cases).
func diffNode(old, new *Node, path []string, d *TreeDelta) {
	if old.Value != new.Value || old.HasValue != new.HasValue ||
		old.Stamp != new.Stamp || old.StampBy != new.StampBy {
		d.Ops = append(d.Ops, DeltaOp{
			Op: DeltaSet, Path: path, // nil at the root, else childPath's own array
			Value: new.Value, HasValue: new.HasValue,
			Stamp: new.Stamp, StampBy: new.StampBy,
		})
	}
	// Merge the two label-sorted arc lists, block by block: ops come out in
	// label order, so the same change always pickles to the same delta. Two
	// runs in one array are shared, so equal, and skipped as far as both
	// reach. An arc to nil (only a foreign checkpoint holds one) is no arc.
	ob, nb := old.blockList(), new.blockList()
	var oa, na []Arc
	for {
		for len(oa) == 0 && len(ob) > 0 {
			oa, ob = ob[0], ob[1:]
		}
		for len(na) == 0 && len(nb) > 0 {
			na, nb = nb[0], nb[1:]
		}
		if len(oa) == 0 && len(na) == 0 {
			return
		}
		if len(oa) > 0 && len(na) > 0 && &oa[0] == &na[0] {
			k := min(len(oa), len(na))
			oa, na = oa[k:], na[k:]
			continue
		}
		d.visited++
		// The next label, and its child on each side that has the label.
		fromOld := len(na) == 0 || (len(oa) > 0 && oa[0].Label <= na[0].Label)
		fromNew := len(oa) == 0 || (len(na) > 0 && na[0].Label <= oa[0].Label)
		var o, n Arc
		if fromOld {
			o, oa = oa[0], oa[1:]
		}
		if fromNew {
			n, na = na[0], na[1:]
		}
		label := n.Label
		if fromOld {
			label = o.Label
		}
		switch {
		case o.Child == n.Child && o.leaf == n.leaf: // pointer-shared (content-identical under COW), or one inline path
		case !n.exists():
			d.Ops = append(d.Ops, DeltaOp{Op: DeltaDelete, Path: childPath(path, label)})
		case !o.exists():
			d.Ops = append(d.Ops, DeltaOp{Op: DeltaPut, Path: childPath(path, label), Subtree: n.Node()})
		default: // an inline path on either side compares as the nodes it stands for
			diffNode(o.Node(), n.Node(), childPath(path, label), d)
		}
	}
}

// childPath returns p extended by label, in an array of its own.
func childPath(p []string, label string) []string {
	return append(p[:len(p):len(p)], label)
}

// ApplyDelta implements the core store's DeltaRoot contract: apply a
// *TreeDelta produced by DeltaSince to this tree. It is called on the
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
