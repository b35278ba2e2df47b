package nameserver

import (
	"testing"

	"smalldb/internal/core"
)

// The reference the log fold (DeltaOf) is checked against: the diff of two
// snapshot views, which is how delta checkpoints were built while the store
// kept the previous checkpoint's view. Under copy-on-write a subtree whose
// root pointer is unchanged between two views is content-identical, so the
// diff descends only where pointers differ.

// diffDelta returns the *TreeDelta turning prev into cur, both immutable.
func diffDelta(cur, prev *Tree) *TreeDelta {
	d := &TreeDelta{}
	oldRoot, newRoot := prev.Root, cur.Root
	if oldRoot == nil {
		oldRoot = &Node{}
	}
	if newRoot == nil {
		newRoot = &Node{}
	}
	diffNode(oldRoot, newRoot, nil, d)
	return d
}

// diffNode appends the ops turning old into new to d. old and new are both
// non-nil and pointer-distinct (callers handle the other cases).
func diffNode(old, new *Node, path []string, d *TreeDelta) {
	if old.Value != new.Value || old.HasValue != new.HasValue ||
		old.Stamp != new.Stamp || old.StampBy != new.StampBy {
		d.Ops = append(d.Ops, DeltaOp{
			Op: DeltaSet, Path: path,
			Value: new.Value, HasValue: new.HasValue,
			Stamp: new.Stamp, StampBy: new.StampBy,
		})
	}
	// Merge the two label-sorted arc lists, block by block. Two runs in one
	// array are shared, so equal, and skipped as far as both reach.
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
		fromOld := len(na) == 0 || (len(oa) > 0 && oa[0].Label() <= na[0].Label())
		fromNew := len(oa) == 0 || (len(na) > 0 && na[0].Label() <= oa[0].Label())
		var o, n Arc
		if fromOld {
			o, oa = oa[0], oa[1:]
		}
		if fromNew {
			n, na = na[0], na[1:]
		}
		label := n.Label()
		if fromOld {
			label = o.Label()
		}
		switch {
		case o.Child == n.Child && o.leaf() == n.leaf(): // pointer-shared, or one inline path
		case !n.exists():
			d.Ops = append(d.Ops, DeltaOp{Op: DeltaDelete, Path: childPath(path, label)})
		case !o.exists():
			d.Ops = append(d.Ops, DeltaOp{Op: DeltaPut, Path: childPath(path, label), Subtree: n.Node()})
		default:
			diffNode(o.Node(), n.Node(), childPath(path, label), d)
		}
	}
}

// foldDelta folds updates, as a checkpoint folds the log it retires, into a
// delta turning the earlier state into cur's, and reports how many updates
// the fold took.
func foldDelta(t *testing.T, cur *Tree, updates []core.Update) (d *TreeDelta, folded int) {
	t.Helper()
	got, err := cur.DeltaOf(func(each func(core.Update) error) error {
		for _, u := range updates {
			folded++
			if err := each(u); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("DeltaOf: %v", err)
	}
	return got.(*TreeDelta), folded
}
