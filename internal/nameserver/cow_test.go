package nameserver

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// The property-based copy-on-write test drives random update sequences
// against two implementations at once — the real tree and a flat
// path→value map — and checks that every published snapshot still agrees
// with the model copy taken at its publication, after every subsequent
// op. Aliasing bugs (a mutation reaching a node an old snapshot can see)
// show up as an old version drifting after later ops; forgotten
// path-copies show up as the live tree disagreeing with the live model.

// flatEntry is one node in the model: whether it carries a value, and
// which.
type flatEntry struct {
	has bool
	val string
}

// flatModel is the reference implementation: every node in the tree,
// keyed by "/"-joined path (the root is implicit and not stored).
type flatModel map[string]flatEntry

func (m flatModel) clone() flatModel {
	c := make(flatModel, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
}

// ensurePath creates every node along parts, like Tree.ensure.
func (m flatModel) ensurePath(parts []string) {
	for i := 1; i <= len(parts); i++ {
		k := strings.Join(parts[:i], "/")
		if _, ok := m[k]; !ok {
			m[k] = flatEntry{}
		}
	}
}

// deletePrefix removes the node at parts and everything below it.
func (m flatModel) deletePrefix(parts []string) {
	p := strings.Join(parts, "/")
	for k := range m {
		if k == p || strings.HasPrefix(k, p+"/") {
			delete(m, k)
		}
	}
}

// insertSubtree installs a deep copy of n at parts.
func (m flatModel) insertSubtree(parts []string, n *Node) {
	k := strings.Join(parts, "/")
	m[k] = flatEntry{has: n.HasValue, val: n.Value}
	for _, a := range n.AllArcs() { // the form Verify folds the update's subtree into
		m.insertSubtree(append(parts[:len(parts):len(parts)], a.Label), a.Node())
	}
	for label, c := range n.Children { // the input form, when Verify has not run
		m.insertSubtree(append(parts[:len(parts):len(parts)], label), c)
	}
}

// apply mirrors one update onto the model.
func (m flatModel) apply(u interface{ Apply(any) error }) {
	switch u := u.(type) {
	case *SetValue:
		m.ensurePath(u.Path)
		m[strings.Join(u.Path, "/")] = flatEntry{has: true, val: u.Value}
	case *DeleteSubtree:
		m.deletePrefix(u.Path)
	case *PutSubtree:
		m.ensurePath(u.Path[:len(u.Path)-1])
		m.deletePrefix(u.Path)
		m.insertSubtree(u.Path, u.Subtree)
	case *Move:
		from := strings.Join(u.From, "/")
		moved := make(map[string]flatEntry)
		for k, v := range m {
			if k == from || strings.HasPrefix(k, from+"/") {
				moved[k[len(from):]] = v // "" for the node itself, "/x..." below
				delete(m, k)
			}
		}
		m.ensurePath(u.To[:len(u.To)-1])
		to := strings.Join(u.To, "/")
		for suffix, v := range moved {
			m[to+suffix] = v
		}
	default:
		panic(fmt.Sprintf("model: unhandled update %T", u))
	}
}

// flattenTree renders a tree into model form.
func flattenTree(t *Tree) flatModel {
	m := make(flatModel)
	var walk func(n *Node, path string)
	walk = func(n *Node, path string) {
		if path != "" {
			m[path] = flatEntry{has: n.HasValue, val: n.Value}
		}
		for _, a := range n.AllArcs() {
			p := a.Label
			if path != "" {
				p = path + "/" + a.Label
			}
			walk(a.Node(), p)
		}
	}
	if t.Root != nil {
		walk(t.Root, "")
	}
	return m
}

func diffModels(got, want flatModel) string {
	for k, w := range want {
		g, ok := got[k]
		if !ok {
			return fmt.Sprintf("missing node %q (want has=%v val=%q)", k, w.has, w.val)
		}
		if g != w {
			return fmt.Sprintf("node %q = {has:%v val:%q}, want {has:%v val:%q}", k, g.has, g.val, w.has, w.val)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Sprintf("extra node %q", k)
		}
	}
	return ""
}

// genUpdate draws one random update: mostly value writes, with enough
// structural ops (puts, deletes, moves) to keep paths colliding and
// subtrees shared. Mirrors the generator in the crashtest package's
// network model, which this test's oracle pattern extends to versions.
func genUpdate(rng *rand.Rand) interface {
	Verify(any) error
	Apply(any) error
} {
	labels := []string{"a", "b", "c", "d"}
	randPath := func() []string {
		depth := 1 + rng.Intn(3)
		p := make([]string, depth)
		for i := range p {
			p[i] = labels[rng.Intn(len(labels))]
		}
		return p
	}
	switch r := rng.Intn(100); {
	case r < 55:
		return &SetValue{Path: randPath(), Value: fmt.Sprintf("v%d", rng.Intn(1_000_000))}
	case r < 70:
		sub := &Node{HasValue: true, Value: fmt.Sprintf("s%d", rng.Intn(1_000_000))}
		for i := 0; i < rng.Intn(3); i++ {
			if sub.Children == nil {
				sub.Children = make(map[string]*Node)
			}
			sub.Children[labels[rng.Intn(len(labels))]] = &Node{
				HasValue: true, Value: fmt.Sprintf("c%d", rng.Intn(1_000_000)),
			}
		}
		return &PutSubtree{Path: randPath(), Subtree: sub}
	case r < 85:
		return &DeleteSubtree{Path: randPath()}
	default:
		return &Move{From: randPath(), To: randPath()}
	}
}

// retainedVersion pairs a published snapshot with the model state at its
// publication.
type retainedVersion struct {
	op    int
	tree  *Tree
	model flatModel
}

// runCOWProperty applies ops random updates to tree and model in
// lockstep, publishing a snapshot with probability pubP after each
// applied op, and verifies (periodically and at the end) that the live
// pair and every retained version pair still agree.
func runCOWProperty(t *testing.T, seed int64, ops int, pubP float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tree := NewTree()
	model := make(flatModel)
	var versions []retainedVersion

	checkAll := func(op int) {
		t.Helper()
		if d := diffModels(flattenTree(tree), model); d != "" {
			t.Fatalf("seed %d op %d: live tree diverged: %s", seed, op, d)
		}
		for _, v := range versions {
			if d := diffModels(flattenTree(v.tree), v.model); d != "" {
				t.Fatalf("seed %d op %d: version published at op %d drifted: %s", seed, op, v.op, d)
			}
		}
	}

	applied := 0
	for i := 0; i < ops; i++ {
		u := genUpdate(rng)
		if err := u.Verify(tree); err != nil {
			continue // precondition failed (delete/move of a missing path)
		}
		if err := u.Apply(tree); err != nil {
			t.Fatalf("seed %d op %d: apply %T: %v", seed, i, u, err)
		}
		model.apply(u)
		applied++
		if rng.Float64() < pubP {
			snap := tree.SnapshotView().(*Tree)
			versions = append(versions, retainedVersion{op: i, tree: snap, model: model.clone()})
		}
		if i%25 == 0 {
			checkAll(i)
		}
	}
	checkAll(ops)
	if applied == 0 || (pubP > 0 && len(versions) == 0) {
		t.Fatalf("seed %d: degenerate run: %d applied, %d versions", seed, applied, len(versions))
	}
	t.Logf("seed %d: %d/%d ops applied, %d versions all consistent", seed, applied, ops, len(versions))
}

func TestCOWPropertyVersions(t *testing.T) {
	ops := 400
	seeds := []int64{1, 2, 3, 4}
	if testing.Short() {
		ops = 120
		seeds = seeds[:2]
	}
	// publish-every-op is the store's behaviour (one version per commit);
	// publish-sometimes leaves multi-op epochs, exercising the in-place
	// fast path for writer-private nodes between snapshots.
	for _, tc := range []struct {
		name string
		pubP float64
	}{
		{"publish-every-op", 1.0},
		{"publish-sometimes", 0.3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, seed := range seeds {
				runCOWProperty(t, seed, ops, tc.pubP)
			}
		})
	}
}

// deptTree builds the benchmark's data set the way its bulk load does:
// org/deptNNN/hostNNNNN/addr for 200 departments of 500 hosts, one
// PutSubtree and one snapshot per department. It returns the hosts' names.
func deptTree(tb testing.TB) (*Tree, [][]string) {
	tree := NewTree()
	var names [][]string
	for d := 0; d < 200; d++ {
		dept := &Node{Children: map[string]*Node{}}
		for h := 0; h < 500; h++ {
			host := fmt.Sprintf("host%05d", d*500+h)
			dept.Children[host] = &Node{Children: map[string]*Node{"addr": {Value: "v", HasValue: true}}}
			names = append(names, []string{"org", fmt.Sprintf("dept%03d", d), host, "addr"})
		}
		u := &PutSubtree{Path: []string{"org", fmt.Sprintf("dept%03d", d)}, Subtree: dept}
		if err := u.Verify(tree); err != nil {
			tb.Fatal(err)
		}
		if err := u.Apply(tree); err != nil {
			tb.Fatal(err)
		}
		tree.SnapshotView()
	}
	return tree, names
}

// TestCOWSetAllocation pins what one copy-on-write Set of an existing name
// allocates on the 1 → 200 → 500 → 1 path of that data set: the copied
// nodes, the two wide directories' indexes and one block of each, and the
// host's inline path to addr, rebuilt with the new value: 3 315 bytes in 11
// allocations (amd64). With the host a node of its own, whose one arc was
// copied, it was 3 451 in 12; with 24-byte arcs and the leaf a node of its
// own 2 630 in 13; copying the directories' whole arc arrays cost 17.7 KB.
func TestCOWSetAllocation(t *testing.T) {
	tree, names := deptTree(t)
	rng := rand.New(rand.NewSource(1))
	set := func() {
		(&SetValue{Path: names[rng.Intn(len(names))], Value: "w"}).Apply(tree)
		tree.SnapshotView()
	}
	for i := 0; i < 2000; i++ { // the first write to each department blocks it
		set()
	}
	var before, after runtime.MemStats
	const sets = 2000
	runtime.ReadMemStats(&before)
	for i := 0; i < sets; i++ {
		set()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / sets; per > 5<<10 {
		t.Fatalf("a copy-on-write Set allocated %d bytes, want at most %d", per, 5<<10)
	}
}

// TestCOWReplayInPlace covers the recovery path: with no snapshot taken,
// every op may mutate in place (no version to protect), and the first
// snapshot taken afterwards must then be isolated from further writes.
func TestCOWReplayInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tree := NewTree()
	model := make(flatModel)
	for i := 0; i < 300; i++ {
		u := genUpdate(rng)
		if err := u.Verify(tree); err != nil {
			continue
		}
		if err := u.Apply(tree); err != nil {
			t.Fatal(err)
		}
		model.apply(u)
	}
	if d := diffModels(flattenTree(tree), model); d != "" {
		t.Fatalf("after replay: %s", d)
	}

	// First snapshot after replay — the entire replayed tree becomes
	// frozen; keep writing and confirm the snapshot holds still.
	snap := tree.SnapshotView().(*Tree)
	frozen := model.clone()
	for i := 0; i < 100; i++ {
		u := genUpdate(rng)
		if err := u.Verify(tree); err != nil {
			continue
		}
		if err := u.Apply(tree); err != nil {
			t.Fatal(err)
		}
		model.apply(u)
	}
	if d := diffModels(flattenTree(snap), frozen); d != "" {
		t.Fatalf("replay-era snapshot drifted: %s", d)
	}
	if d := diffModels(flattenTree(tree), model); d != "" {
		t.Fatalf("post-replay live tree diverged: %s", d)
	}
}
