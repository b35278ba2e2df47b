package replica

import (
	"sort"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
)

// diffRootDelta is the reference the log fold (DeltaOf) is checked against:
// the delta of two snapshot views compared whole, as delta checkpoints were
// built while the store kept the previous checkpoint's view. Its tree part
// replaces every top-level name of either view wholesale (the name server's
// tests hold the fine-grained tree diff).
func diffRootDelta(cur, prev *Root) *RootDelta {
	return &RootDelta{Tree: diffTopLevel(cur.Tree, prev.Tree), Vector: copyVector(cur.Vector), Clock: cur.Clock}
}

// diffTopLevel returns the tree delta that sets cur's root and puts or
// deletes each top-level name of either tree.
func diffTopLevel(cur, prev *nameserver.Tree) *nameserver.TreeDelta {
	labels := map[string]bool{}
	for _, t := range []*nameserver.Tree{cur, prev} {
		for _, a := range t.Root.AllArcs() {
			labels[a.Label()] = true
		}
	}
	sorted := make([]string, 0, len(labels))
	for l := range labels {
		sorted = append(sorted, l)
	}
	sort.Strings(sorted)
	r := cur.Root
	d := &nameserver.TreeDelta{Ops: []nameserver.DeltaOp{{Op: nameserver.DeltaSet, Value: r.Value, HasValue: r.HasValue, Stamp: r.Stamp, StampBy: r.StampBy}}}
	for _, l := range sorted {
		if n := cur.FindNode([]string{l}); n != nil {
			d.Ops = append(d.Ops, nameserver.DeltaOp{Op: nameserver.DeltaPut, Path: []string{l}, Subtree: n})
		} else {
			d.Ops = append(d.Ops, nameserver.DeltaOp{Op: nameserver.DeltaDelete, Path: []string{l}})
		}
	}
	return d
}

// foldRoot folds updates, as a checkpoint folds the log it retires, into the
// delta turning the state of an earlier view into cur's.
func foldRoot(cur *Root, updates []core.Update) (*RootDelta, error) {
	d, err := cur.DeltaOf(func(each func(core.Update) error) error {
		for _, u := range updates {
			if err := each(u); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return d.(*RootDelta), nil
}
