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
// tests hold the fine-grained tree diff). Its history part leans on the
// invariant that each apply appends one entry and raises one vector slot by
// one, so the difference of the vector sums splits the current window into
// the earlier window's tail and the appended entries; the split is checked
// at its boundary entries, and a window replaced wholesale is carried whole.
func diffRootDelta(cur, prev *Root) *RootDelta {
	d := &RootDelta{
		Tree:       diffTopLevel(cur.Tree, prev.Tree),
		Vector:     copyVector(cur.Vector),
		Clock:      cur.Clock,
		HistoryCap: cur.HistoryCap,
	}
	appended := vectorSum(cur.Vector) - vectorSum(prev.Vector)
	if appended >= uint64(len(cur.History)) {
		d.HistoryDropped = len(prev.History)
		d.HistoryAppended = append([]Entry(nil), cur.History...)
		d.HistoryFull = appended > uint64(len(cur.History)) && len(cur.History) > 0
		return d
	}
	survive := len(cur.History) - int(appended)
	dropped := len(prev.History) - survive
	if dropped < 0 || survive > 0 && (!entrySame(cur.History[0], prev.History[dropped]) ||
		!entrySame(cur.History[survive-1], prev.History[len(prev.History)-1])) {
		d.HistoryFull = true
		d.HistoryAppended = append([]Entry(nil), cur.History...)
		return d
	}
	d.HistoryDropped = dropped
	d.HistoryAppended = append([]Entry(nil), cur.History[survive:]...)
	return d
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

func entrySame(a, b Entry) bool {
	return a.Origin == b.Origin && a.Seq == b.Seq && a.Stamp == b.Stamp
}

// foldRoot folds updates, as a checkpoint folds the log it retires, into the
// delta turning the state of an earlier view whose DeltaMark was mark into
// cur's.
func foldRoot(cur *Root, mark int, updates []core.Update) (*RootDelta, error) {
	d, err := cur.DeltaOf(mark, func(each func(core.Update) error) error {
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
