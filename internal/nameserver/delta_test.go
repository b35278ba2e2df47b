package nameserver

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// nodesMatch compares two subtrees on every pickled field, stamps
// included (flatModel only covers values, and deltas must preserve
// replication stamps too).
func nodesMatch(a, b *Node, path string) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return fmt.Sprintf("node %q: nil mismatch", path)
	}
	if a.Value != b.Value || a.HasValue != b.HasValue || a.Stamp != b.Stamp || a.StampBy != b.StampBy {
		return fmt.Sprintf("node %q: scalars %v/%q/%d/%q vs %v/%q/%d/%q",
			path, a.HasValue, a.Value, a.Stamp, a.StampBy, b.HasValue, b.Value, b.Stamp, b.StampBy)
	}
	aa, ba := a.AllArcs(), b.AllArcs()
	if len(aa) != len(ba) {
		return fmt.Sprintf("node %q: %d vs %d children", path, len(aa), len(ba))
	}
	for i, arc := range aa {
		if ba[i].Label != arc.Label {
			return fmt.Sprintf("node %q: extra child %q", path, arc.Label)
		}
		if d := nodesMatch(arc.Node(), ba[i].Node(), path+"/"+arc.Label); d != "" {
			return d
		}
	}
	return ""
}

// roundTripDelta pushes a delta through the pickle wire format, as the
// checkpoint file does, so aliasing with the source tree is severed and
// wire-compatibility is asserted on every test.
func roundTripDelta(t *testing.T, d any) *TreeDelta {
	t.Helper()
	data, err := pickle.Marshal(d.(*TreeDelta))
	if err != nil {
		t.Fatalf("marshal delta: %v", err)
	}
	out := &TreeDelta{}
	if err := pickle.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal delta: %v", err)
	}
	return out
}

// TestTreeDeltaProperty: random updates with snapshots at random points;
// a reconstruction tree fed only pickled deltas must track every snapshot
// exactly.
func TestTreeDeltaProperty(t *testing.T) {
	ops := 600
	if testing.Short() {
		ops = 150
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		rng := rand.New(rand.NewSource(seed))
		tree := NewTree()
		recon := NewTree()
		prev := tree.SnapshotView().(*Tree)
		snapshots, deltaOps, applied := 0, 0, 0
		for i := 0; i < ops; i++ {
			u := genUpdate(rng)
			if err := u.Verify(tree); err != nil {
				continue
			}
			if err := u.Apply(tree); err != nil {
				t.Fatalf("seed %d op %d: %v", seed, i, err)
			}
			applied++
			if rng.Float64() < 0.15 {
				cur := tree.SnapshotView().(*Tree)
				d, err := cur.DeltaSince(prev)
				if err != nil {
					t.Fatalf("seed %d op %d: DeltaSince: %v", seed, i, err)
				}
				wire := roundTripDelta(t, d)
				deltaOps += len(wire.Ops)
				if err := recon.ApplyDelta(wire); err != nil {
					t.Fatalf("seed %d op %d: ApplyDelta: %v", seed, i, err)
				}
				if diff := nodesMatch(recon.Root, cur.Root, ""); diff != "" {
					t.Fatalf("seed %d op %d: reconstruction diverged: %s", seed, i, diff)
				}
				prev = cur
				snapshots++
			}
		}
		if snapshots == 0 || applied == 0 {
			t.Fatalf("seed %d: degenerate run (%d snapshots, %d applied)", seed, snapshots, applied)
		}
		t.Logf("seed %d: %d updates, %d snapshots, %d delta ops", seed, applied, snapshots, deltaOps)
	}
}

func TestTreeDeltaEmpty(t *testing.T) {
	tree := NewTree()
	(&SetValue{Path: []string{"a"}, Value: "1"}).Apply(tree)
	v1 := tree.SnapshotView().(*Tree)
	v2 := tree.SnapshotView().(*Tree)
	d, err := v2.DeltaSince(v1)
	if err != nil {
		t.Fatal(err)
	}
	if n := d.(*TreeDelta).DeltaOps(); n != 0 {
		t.Fatalf("delta of identical snapshots has %d ops", n)
	}
}

// TestTreeDeltaProportionalToChurn: touching a handful of names in a big
// tree yields a delta whose op count is on the order of the churn, not
// the tree.
func TestTreeDeltaProportionalToChurn(t *testing.T) {
	tree := NewTree()
	for i := 0; i < 2000; i++ {
		p := []string{fmt.Sprintf("dir%d", i%50), fmt.Sprintf("leaf%d", i)}
		(&SetValue{Path: p, Value: "x"}).Apply(tree)
	}
	v1 := tree.SnapshotView().(*Tree)
	for i := 0; i < 10; i++ {
		(&SetValue{Path: []string{"dir0", fmt.Sprintf("leaf%d", i*50)}, Value: "y"}).Apply(tree)
	}
	v2 := tree.SnapshotView().(*Tree)
	d, err := v2.DeltaSince(v1)
	if err != nil {
		t.Fatal(err)
	}
	n := d.(*TreeDelta).DeltaOps()
	if n == 0 || n > 30 {
		t.Fatalf("10 leaf writes produced %d delta ops", n)
	}
}

// TestTreeDeltaVisitsChangedBlocks: one Set in a 500-arc directory changes
// one of its blocks, and the diff compares that block's arcs one by one and
// skips the rest — whether the earlier view held the directory in blocks
// or flat, as a PutSubtree leaves it until its first copy-on-write write.
func TestTreeDeltaVisitsChangedBlocks(t *testing.T) {
	dir := &Node{}
	for i := 0; i < 500; i++ {
		dir.Arcs = append(dir.Arcs, Arc{Label: fmt.Sprintf("name%03d", i), Child: &Node{Value: "v", HasValue: true}})
	}
	tree := NewTree()
	if err := (&PutSubtree{Path: []string{"dir"}, Subtree: dir}).Apply(tree); err != nil {
		t.Fatal(err)
	}
	prev := tree.SnapshotView().(*Tree)
	for _, held := range []string{"flat", "in blocks"} {
		(&SetValue{Path: []string{"dir", "name250"}, Value: held}).Apply(tree)
		cur := tree.SnapshotView().(*Tree)
		d := mustDelta(t, cur, prev).(*TreeDelta)
		if len(d.Ops) != 1 || d.visited > 1+blockSize {
			t.Fatalf("directory held %s: %d ops, %d arcs compared; want 1 op and at most %d arcs", held, len(d.Ops), d.visited, 1+blockSize)
		}
		prev = cur
	}
}

// TestApplyDeltaRefusesSharedSubtree: a delta's subtrees come off the wire,
// where one pickle could reach a node twice — within one put or across two.
// Within one, the node is an arc's, and a pair owns its value: decoding
// refuses the reference, and pickling a cycle fails. Across two, Subtree is a
// plain pointer, which pickle shares, so ApplyDelta refuses it.
func TestApplyDeltaRefusesSharedSubtree(t *testing.T) {
	leaf := &Node{Value: "v", HasValue: true}
	var pe *pickle.Error
	within := shareArc(mustMarshal(&TreeDelta{Ops: []DeltaOp{{Op: DeltaPut, Path: []string{"a"}, Subtree: &Node{Arcs: []Arc{{Label: "p", Child: leaf}, {Label: "q"}}}}}}), "p", "q")
	if err := pickle.Unmarshal(within, &TreeDelta{}); !errors.As(err, &pe) {
		t.Errorf("within: Unmarshal = %v, want a *pickle.Error", err)
	}
	cycle := &Node{}
	cycle.Arcs = []Arc{{Label: "x", Child: cycle}}
	if _, err := pickle.Marshal(&TreeDelta{Ops: []DeltaOp{{Op: DeltaPut, Path: []string{"a"}, Subtree: cycle}}}); !errors.As(err, &pe) {
		t.Errorf("cycle: Marshal = %v, want a *pickle.Error", err)
	}
	var wire TreeDelta
	if err := pickle.Unmarshal(mustMarshal(&TreeDelta{Ops: []DeltaOp{{Op: DeltaPut, Path: []string{"a"}, Subtree: leaf}, {Op: DeltaPut, Path: []string{"b"}, Subtree: leaf}}}), &wire); err != nil {
		t.Fatal(err)
	}
	if err := NewTree().ApplyDelta(&wire); !errors.Is(err, ErrSharedSubtree) {
		t.Errorf("across: ApplyDelta = %v, want ErrSharedSubtree", err)
	}
}

// TestTreeDeltaMove: a Move shows up as a delete plus a full-subtree put;
// reconstruction must land on the identical tree.
func TestTreeDeltaMove(t *testing.T) {
	tree := NewTree()
	for i := 0; i < 5; i++ {
		(&SetValue{Path: []string{"src", fmt.Sprintf("k%d", i)}, Value: "v"}).Apply(tree)
	}
	v1 := tree.SnapshotView().(*Tree)
	recon := NewTree()
	if err := recon.ApplyDelta(roundTripDelta(t, mustDelta(t, v1, NewTree().SnapshotView().(*Tree)))); err != nil {
		t.Fatal(err)
	}
	if diff := nodesMatch(recon.Root, v1.Root, ""); diff != "" {
		t.Fatalf("base reconstruction: %s", diff)
	}

	if err := (&Move{From: []string{"src"}, To: []string{"dst"}}).Apply(tree); err != nil {
		t.Fatal(err)
	}
	v2 := tree.SnapshotView().(*Tree)
	d := roundTripDelta(t, mustDelta(t, v2, v1))
	if err := recon.ApplyDelta(d); err != nil {
		t.Fatal(err)
	}
	if diff := nodesMatch(recon.Root, v2.Root, ""); diff != "" {
		t.Fatalf("after move: %s", diff)
	}
}

// TestTreeDeltaStamps: replication stamps travel with DeltaSet ops.
func TestTreeDeltaStamps(t *testing.T) {
	tree := NewTree()
	(&SetValue{Path: []string{"x"}, Value: "0"}).Apply(tree)
	v1 := tree.SnapshotView().(*Tree)
	tree.SetStamped([]string{"x"}, "1", 42, "nodeB")
	v2 := tree.SnapshotView().(*Tree)

	recon := NewTree()
	(&SetValue{Path: []string{"x"}, Value: "0"}).Apply(recon)
	if err := recon.ApplyDelta(roundTripDelta(t, mustDelta(t, v2, v1))); err != nil {
		t.Fatal(err)
	}
	got := recon.FindNode([]string{"x"})
	if got == nil || got.Stamp != 42 || got.StampBy != "nodeB" || got.Value != "1" {
		t.Fatalf("stamps lost: %+v", got)
	}
}

func mustDelta(t *testing.T, cur, prev *Tree) any {
	t.Helper()
	d, err := cur.DeltaSince(prev)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestDeltaCheckpointBytesTrackChurn states the incremental-checkpoint claim
// in bytes, through the server: at a fixed absolute churn the delta file —
// and what a restart reads of it — stays near-flat across a 4x root-size
// sweep while the full image tracks the root, and at churn = 10% of the root
// the delta costs at most a quarter of the full image.
func TestDeltaCheckpointBytesTrackChurn(t *testing.T) {
	const base, churn = 1024, 102
	val := strings.Repeat("x", 256)
	name := func(i int) string { return fmt.Sprintf("cpscale/dir%d/e%d", i%127, i) }
	measure := func(entries int) (full, delta, restartDelta int64) {
		fs := vfs.NewMem(1)
		ns, err := Open(Config{FS: fs, Retain: 1})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			if err := ns.Set(name(i), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := ns.Checkpoint(); err != nil { // the full base image
			t.Fatal(err)
		}
		full = ns.Stats().LastCheckpointBytes
		for i := 0; i < churn; i++ {
			if err := ns.Set(name(i*(entries/churn)), val+"y"); err != nil {
				t.Fatal(err)
			}
		}
		if err := ns.Checkpoint(); err != nil { // the measured delta
			t.Fatal(err)
		}
		st := ns.Stats()
		if st.ChainLength != 2 || st.DeltaCheckpoints != 1 {
			t.Fatalf("%d entries: chain length %d, %d deltas — not a delta chain", entries, st.ChainLength, st.DeltaCheckpoints)
		}
		delta = st.LastCheckpointBytes
		if err := ns.Close(); err != nil {
			t.Fatal(err)
		}
		ns2, err := Open(Config{FS: fs, Retain: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer ns2.Close()
		rst := ns2.Stats()
		if rst.RestartDeltasApplied != 1 {
			t.Fatalf("%d entries: restart applied %d deltas, want 1", entries, rst.RestartDeltasApplied)
		}
		return full, delta, rst.RestartDeltaBytes
	}
	full1, delta1, restart1 := measure(base)
	full4, delta4, restart4 := measure(4 * base)
	if r := float64(delta1) / float64(full1); r > 0.25 {
		t.Errorf("delta wrote %.0f%% of the full image at 10%% churn (%d of %d bytes)", 100*r, delta1, full1)
	}
	if g := float64(delta4) / float64(delta1); g >= 1.5 {
		t.Errorf("delta bytes grew %.2fx across a 4x root (%d -> %d)", g, delta1, delta4)
	}
	if g := float64(restart4) / float64(restart1); g >= 1.5 {
		t.Errorf("restart delta bytes grew %.2fx across a 4x root (%d -> %d)", g, restart1, restart4)
	}
	if g := float64(full4) / float64(full1); g <= 2.5 {
		t.Errorf("full image grew only %.2fx across a 4x root (%d -> %d)", g, full1, full4)
	}
}

// TestDeltaCheckpointReproducible: a delta that holds many operations —
// sets under several directories, a delete, a subtree install, a rename —
// comes out byte for byte the same every time the same workload is run. The
// diff is a merge over label-sorted arcs, so its operations are listed in
// label order (they used to come out in Go's map order, which differs from
// run to run).
func TestDeltaCheckpointReproducible(t *testing.T) {
	run := func() (deltas map[string][]byte, ops int) {
		fs := vfs.NewMem(1)
		ns, err := Open(Config{FS: fs, Retain: 1, MaxDeltaRatio: 8})
		if err != nil {
			t.Fatal(err)
		}
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 60; i++ {
			must(ns.Set(fmt.Sprintf("dept%d/host%d/addr", i%6, i), fmt.Sprintf("v%d", i)))
		}
		must(ns.Checkpoint()) // the full base image
		var base *Tree
		must(ns.Store().View(func(root any) error { base = root.(*Tree); return nil }))
		for i := 0; i < 60; i += 7 {
			must(ns.Set(fmt.Sprintf("dept%d/host%d/addr", i%6, i), "changed"))
		}
		for i := 0; i < 5; i++ {
			must(ns.Set(fmt.Sprintf("new%d/leaf", 4-i), "x"))
		}
		must(ns.Delete("dept1/host1"))
		must(ns.Put("dept2/imported", &Node{Children: map[string]*Node{
			"q": {Value: "1", HasValue: true}, "p": {Value: "2", HasValue: true}, "r": {},
		}}))
		must(ns.Rename("dept3", "moved"))
		must(ns.Store().View(func(root any) error {
			d, err := root.(*Tree).DeltaSince(base)
			ops = d.(*TreeDelta).DeltaOps()
			return err
		}))
		must(ns.Checkpoint()) // the measured delta
		if st := ns.Stats(); st.DeltaCheckpoints != 1 {
			t.Fatalf("second checkpoint was not a delta: %+v", st)
		}
		must(ns.Close())
		names, err := fs.List()
		must(err)
		deltas = map[string][]byte{}
		for _, name := range names {
			if strings.HasSuffix(name, ".d") {
				deltas[name], err = vfs.ReadFile(fs, name)
				must(err)
			}
		}
		return deltas, ops
	}
	first, ops := run()
	if len(first) != 1 || ops < 10 {
		t.Fatalf("want one delta file of many operations, got %d files, %d ops", len(first), ops)
	}
	for i := 0; i < 4; i++ {
		again, _ := run()
		for name, data := range first {
			if !bytes.Equal(again[name], data) {
				t.Fatalf("run %d: %s differs from the first run's (%d vs %d bytes): a %d-op delta is not reproducible", i+2, name, len(again[name]), len(data), ops)
			}
		}
	}
}
