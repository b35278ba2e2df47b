package nameserver

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// finishes records the attributes of every checkpoint.finish event.
type finishes struct {
	mu     sync.Mutex
	events []map[string]any
}

func (f *finishes) Emit(e obs.Event) {
	if e.Name != "checkpoint.finish" {
		return
	}
	attrs := map[string]any{}
	for _, a := range e.Attrs {
		attrs[a.Key] = a.Value
	}
	f.mu.Lock()
	f.events = append(f.events, attrs)
	f.mu.Unlock()
}

// last returns the attributes of the latest checkpoint.finish.
func (f *finishes) last() map[string]any {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.events) == 0 {
		return nil
	}
	return f.events[len(f.events)-1]
}

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
		if ba[i].Label() != arc.Label() {
			return fmt.Sprintf("node %q: extra child %q", path, arc.Label())
		}
		if d := nodesMatch(arc.Node(), ba[i].Node(), path+"/"+arc.Label()); d != "" {
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

// TestTreeDeltaProperty: seeded histories of the crash sweeps' update mix
// — Set, Delete, Put, Move — and stamped Sets, as a replica applies them,
// with checkpoints at random points. At each, the fold of the updates applied
// since the previous one, through the wire, must rebuild the snapshot on the
// previous snapshot's state, and land where the reference diff of the two
// snapshots lands.
func TestTreeDeltaProperty(t *testing.T) {
	ops := 600
	if testing.Short() {
		ops = 150
	}
	for _, seed := range []int64{1, 2, 3, 4, 5, 6, 7, 8} {
		rng := rand.New(rand.NewSource(seed))
		tree := NewTree()
		recon, ref := NewTree(), NewTree()
		prev := tree.SnapshotView().(*Tree)
		var logged []core.Update
		snapshots, deltaOps, applied := 0, 0, 0
		for i := 0; i < ops; i++ {
			if rng.Intn(10) == 0 { // a replica's stamped Set: it logs the SetValue it wraps
				path := []string{"abcd"[rng.Intn(4):][:1], "ab"[rng.Intn(2):][:1]}
				tree.SetStamped(path, fmt.Sprintf("w%d", i), uint64(1+rng.Intn(i+1)), "origin"+"xyz"[rng.Intn(3):][:1])
				logged = append(logged, &SetValue{Path: path})
			} else {
				u := genUpdate(rng)
				if err := u.Verify(tree); err != nil {
					continue
				}
				if err := u.Apply(tree); err != nil {
					t.Fatalf("seed %d op %d: %v", seed, i, err)
				}
				logged = append(logged, u.(core.Update))
			}
			applied++
			if rng.Float64() < 0.15 {
				cur := tree.SnapshotView().(*Tree)
				d, _ := foldDelta(t, cur, logged)
				wire := roundTripDelta(t, d)
				deltaOps += len(wire.Ops)
				if err := recon.ApplyDelta(wire); err != nil {
					t.Fatalf("seed %d op %d: ApplyDelta: %v", seed, i, err)
				}
				if diff := nodesMatch(recon.Root, cur.Root, ""); diff != "" {
					t.Fatalf("seed %d op %d: reconstruction diverged: %s", seed, i, diff)
				}
				if err := ref.ApplyDelta(roundTripDelta(t, diffDelta(cur, prev))); err != nil {
					t.Fatalf("seed %d op %d: ApplyDelta of the reference: %v", seed, i, err)
				}
				if diff := nodesMatch(recon.Root, ref.Root, ""); diff != "" {
					t.Fatalf("seed %d op %d: the fold and the reference diff disagree: %s", seed, i, diff)
				}
				prev, logged = cur, nil
				snapshots++
			}
		}
		if snapshots == 0 || applied == 0 {
			t.Fatalf("seed %d: degenerate run (%d snapshots, %d applied)", seed, snapshots, applied)
		}
		t.Logf("seed %d: %d updates, %d snapshots, %d delta ops", seed, applied, snapshots, deltaOps)
	}
}

// TestTreeDeltaKeepsEmptiedParent: a Set makes the names on its way, and a
// Delete of the name it was made for leaves them there, empty. The fold
// sets such a parent too, so the delta makes it on a state that lacked it.
func TestTreeDeltaKeepsEmptiedParent(t *testing.T) {
	tree := NewTree()
	updates := []core.Update{
		&SetValue{Path: []string{"p", "q", "r"}, Value: "v"},
		&DeleteSubtree{Path: []string{"p", "q"}},
	}
	for _, u := range updates {
		if err := u.Verify(tree); err != nil {
			t.Fatal(err)
		}
		if err := u.Apply(tree); err != nil {
			t.Fatal(err)
		}
	}
	cur := tree.SnapshotView().(*Tree)
	d, _ := foldDelta(t, cur, updates)
	recon := NewTree()
	if err := recon.ApplyDelta(roundTripDelta(t, d)); err != nil {
		t.Fatal(err)
	}
	if diff := nodesMatch(recon.Root, cur.Root, ""); diff != "" {
		t.Fatalf("%+v rebuilt a different tree: %s", d.Ops, diff)
	}
}

func TestTreeDeltaEmpty(t *testing.T) {
	tree := NewTree()
	(&SetValue{Path: []string{"a"}, Value: "1"}).Apply(tree)
	if d, _ := foldDelta(t, tree.SnapshotView().(*Tree), nil); d.DeltaOps() != 0 {
		t.Fatalf("the fold of no updates has %d ops", d.DeltaOps())
	}
}

// TestTreeDeltaProportionalToChurn: touching a handful of names yields a
// delta of one op per name the log range wrote, whatever the size of the
// tree around them: the fold reads the log, not the tree.
func TestTreeDeltaProportionalToChurn(t *testing.T) {
	for _, names := range []int{2000, 8000} {
		tree := NewTree()
		for i := 0; i < names; i++ {
			p := []string{fmt.Sprintf("dir%d", i%50), fmt.Sprintf("leaf%d", i)}
			(&SetValue{Path: p, Value: "x"}).Apply(tree)
		}
		tree.SnapshotView()
		var logged []core.Update
		for i := 0; i < 10; i++ {
			u := &SetValue{Path: []string{"dir0", fmt.Sprintf("leaf%d", i*50)}, Value: "y"}
			u.Apply(tree)
			logged = append(logged, u, u) // each name written twice
		}
		d, folded := foldDelta(t, tree.SnapshotView().(*Tree), logged)
		if folded != 20 || d.DeltaOps() != 10 {
			t.Fatalf("%d names: 20 writes of 10 names folded %d entries into %d ops, want 20 into 10", names, folded, d.DeltaOps())
		}
	}
}

// TestTreeDeltaVisitsChangedBlocks: one Set in a wide directory folds into
// one op whether the directory holds 500 arcs or 5 000, flat or in blocks,
// as a PutSubtree leaves it until its first copy-on-write write.
func TestTreeDeltaVisitsChangedBlocks(t *testing.T) {
	for _, width := range []int{500, 5000} {
		dir := &Node{}
		for i := 0; i < width; i++ {
			dir.Arcs = append(dir.Arcs, arcOf(fmt.Sprintf("name%04d", i), &Node{Value: "v", HasValue: true}))
		}
		tree := NewTree()
		if err := (&PutSubtree{Path: []string{"dir"}, Subtree: dir}).Apply(tree); err != nil {
			t.Fatal(err)
		}
		prev := tree.SnapshotView().(*Tree)
		for _, held := range []string{"flat", "in blocks"} {
			u := &SetValue{Path: []string{"dir", "name0250"}, Value: held}
			u.Apply(tree)
			cur := tree.SnapshotView().(*Tree)
			d, folded := foldDelta(t, cur, []core.Update{u})
			if folded != 1 || len(d.Ops) != 1 || d.Ops[0].Op != DeltaSet {
				t.Fatalf("%d arcs held %s: 1 Set folded into %+v, want one DeltaSet", width, held, d.Ops)
			}
			recon := roundTripTree(t, prev)
			if err := recon.ApplyDelta(roundTripDelta(t, d)); err != nil {
				t.Fatal(err)
			}
			if diff := nodesMatch(recon.Root, cur.Root, ""); diff != "" {
				t.Fatalf("%d arcs held %s: %s", width, held, diff)
			}
			prev = cur
		}
	}
}

// roundTripTree returns a loaded copy of tr, as a restart reads its image.
func roundTripTree(t *testing.T, tr *Tree) *Tree {
	t.Helper()
	out := &Tree{}
	if err := pickle.Unmarshal(mustMarshal(tr), out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestApplyDeltaRefusesSharedSubtree: a delta's subtrees come off the wire,
// where one pickle could reach a node twice — within one put or across two.
// Within one, the node is an arc's, and a pair owns its value: decoding
// refuses the reference, and pickling a cycle fails. Across two, Subtree is a
// plain pointer, which pickle shares, so ApplyDelta refuses it.
func TestApplyDeltaRefusesSharedSubtree(t *testing.T) {
	leaf := &Node{Value: "v", HasValue: true}
	var pe *pickle.Error
	within := shareArc(mustMarshal(&TreeDelta{Ops: []DeltaOp{{Op: DeltaPut, Path: []string{"a"}, Subtree: &Node{Arcs: []Arc{arcOf("p", leaf), arcOf("q", nil)}}}}}), "p", "q")
	if err := pickle.Unmarshal(within, &TreeDelta{}); !errors.As(err, &pe) {
		t.Errorf("within: Unmarshal = %v, want a *pickle.Error", err)
	}
	cycle := &Node{}
	cycle.Arcs = []Arc{arcOf("x", cycle)}
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
	recon := roundTripTree(t, tree.SnapshotView().(*Tree))
	move := &Move{From: []string{"src"}, To: []string{"dst"}}
	if err := move.Apply(tree); err != nil {
		t.Fatal(err)
	}
	v2 := tree.SnapshotView().(*Tree)
	fold, _ := foldDelta(t, v2, []core.Update{move})
	d := roundTripDelta(t, fold)
	if len(d.Ops) != 2 || d.Ops[0].Op != DeltaPut || d.Ops[1].Op != DeltaDelete {
		t.Fatalf("a move folded into %+v, want a put and a delete", d.Ops)
	}
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
	tree.SnapshotView()
	tree.SetStamped([]string{"x"}, "1", 42, "nodeB")
	d, _ := foldDelta(t, tree.SnapshotView().(*Tree), []core.Update{&SetValue{Path: []string{"x"}, Value: "1"}})

	recon := NewTree()
	(&SetValue{Path: []string{"x"}, Value: "0"}).Apply(recon)
	if err := recon.ApplyDelta(roundTripDelta(t, d)); err != nil {
		t.Fatal(err)
	}
	got := recon.FindNode([]string{"x"})
	if got == nil || got.Stamp != 42 || got.StampBy != "nodeB" || got.Value != "1" {
		t.Fatalf("stamps lost: %+v", got)
	}
}

// TestBulkLoadPicklesOneImage: the first checkpoint of a bulk load —
// PutSubtrees on an empty store, as the benchmark's setup does — writes a
// full image, since a delta of the whole tree cannot pass MaxDeltaRatio of
// the empty image it would chain onto. Its log is larger than that image, so
// the checkpoint reads none of it back: nothing is folded and no delta
// pickled, and the image is the checkpoint's one pickle. A later checkpoint
// of a few Sets does read its log and writes a delta.
func TestBulkLoadPicklesOneImage(t *testing.T) {
	var cps finishes
	fs := vfs.NewMetered(vfs.NewMem(1), vfs.Profile{}, 0)
	ns, err := Open(Config{FS: fs, Tracer: &cps})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	for d := 0; d < 20; d++ {
		dept := &Node{Children: map[string]*Node{}}
		for h := 0; h < 100; h++ {
			dept.Children[fmt.Sprintf("host%05d", d*100+h)] = &Node{Children: map[string]*Node{"addr": {Value: fmt.Sprintf("%048x", d*100+h), HasValue: true}}}
		}
		if err := ns.Put(fmt.Sprintf("org/dept%03d", d), dept); err != nil {
			t.Fatal(err)
		}
	}
	fs.ResetStats()
	if err := ns.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// What a checkpoint reads besides a log range is its version's small
	// state files.
	ev, bulkRead := cps.last(), fs.Stats().BytesRead
	if image, _ := ev["bytes"].(int64); ev["delta"] != false || bulkRead > image/100 {
		t.Fatalf("bulk load: checkpoint.finish %v after reading %d bytes; want a full image and its log left unread", ev, bulkRead)
	}
	for i := 0; i < 3; i++ {
		if err := ns.Set(fmt.Sprintf("org/dept000/host%05d/addr", i), "changed"); err != nil {
			t.Fatal(err)
		}
	}
	fs.ResetStats()
	if err := ns.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if ev, read := cps.last(), fs.Stats().BytesRead; ev["delta"] != true || read <= bulkRead {
		t.Fatalf("three Sets: checkpoint.finish %v after reading %d bytes; want a delta folded from its log", ev, read)
	}
}

// TestHotNamesFoldToADelta: many updates of a few names make a log range
// larger than MaxDeltaRatio of the base image, but the delta the fold makes
// of it holds those names alone, so the checkpoint still writes a delta of
// one op a name rather than the full image.
func TestHotNamesFoldToADelta(t *testing.T) {
	const names, sets = 1024, 700
	val := strings.Repeat("x", 256)
	var cps finishes
	fs := vfs.NewMetered(vfs.NewMem(1), vfs.Profile{}, 0)
	ns, err := Open(Config{FS: fs, Retain: 1, Tracer: &cps})
	if err != nil {
		t.Fatal(err)
	}
	defer ns.Close()
	for i := 0; i < names; i++ {
		if err := ns.Set(fmt.Sprintf("hot/dir%d/e%d", i%127, i), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := ns.Checkpoint(); err != nil { // the full base image
		t.Fatal(err)
	}
	full := ns.Stats().LastCheckpointBytes
	for i := 0; i < sets; i++ {
		if err := ns.Set(fmt.Sprintf("hot/dir%d/e%d", i%2, i%2), fmt.Sprintf("%s%d", val, i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.ResetStats()
	if err := ns.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	ev, read := cps.last(), fs.Stats().BytesRead
	t.Logf("%d Sets of 2 names: %d log bytes read over a %d-byte image, checkpoint.finish %v", sets, read, full, ev)
	if float64(read) <= 0.5*float64(full) {
		t.Fatalf("the log range read %d bytes, not past MaxDeltaRatio 0.5 of the %d-byte image", read, full)
	}
	if ev["delta"] != true || ev["subtrees"] != 2 {
		t.Fatalf("checkpoint.finish %v: want a delta of the 2 names", ev)
	}
	if b, _ := ev["bytes"].(int64); b > full/100 {
		t.Fatalf("a delta of 2 names took %d bytes against a %d-byte image", b, full)
	}
}

// TestDeltaCheckpointBytesTrackChurn states the incremental-checkpoint claim
// in bytes, through the server: at a fixed absolute churn the delta file —
// and what a restart reads of it — stays near-flat across a 4x root-size
// sweep while the full image tracks the root, and at churn = 10% of the root
// the delta costs at most a quarter of the full image. The delta holds one op
// per entry of the log it folds, at every root size.
func TestDeltaCheckpointBytesTrackChurn(t *testing.T) {
	const base, churn = 1024, 102
	val := strings.Repeat("x", 256)
	name := func(i int) string { return fmt.Sprintf("cpscale/dir%d/e%d", i%127, i) }
	measure := func(entries int) (full, delta, restartDelta int64) {
		fs := vfs.NewMem(1)
		var cps finishes
		ns, err := Open(Config{FS: fs, Retain: 1, Tracer: &cps})
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
		if ops := cps.last()["subtrees"]; ops != churn {
			t.Fatalf("%d entries: %d Sets folded into %v ops, want one each", entries, churn, ops)
		}
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
// fold lists the names it marked in label order (a delta once came out in
// Go's map order, which differs from run to run).
func TestDeltaCheckpointReproducible(t *testing.T) {
	run := func() (deltas map[string][]byte, ops int) {
		fs := vfs.NewMem(1)
		var cps finishes
		ns, err := Open(Config{FS: fs, Retain: 1, MaxDeltaRatio: 8, Tracer: &cps})
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
		must(ns.Checkpoint()) // the measured delta
		ops = cps.last()["subtrees"].(int)
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
