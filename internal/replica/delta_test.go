package replica

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// applyN applies n replicated SetValue updates from origin to r, starting
// at per-origin sequence startSeq, stamping from the root's clock, and
// returns them as the log holds them.
func applyN(t *testing.T, r *Root, origin string, startSeq uint64, n int) (logged []core.Update) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := startSeq + uint64(i)
		u := &Replicated{
			Origin: origin,
			Seq:    seq,
			Stamp:  r.Clock + 1,
			Inner: &nameserver.SetValue{
				Path:  []string{origin, fmt.Sprintf("k%d", seq)},
				Value: fmt.Sprintf("v%d", seq),
			},
		}
		if err := u.Verify(r); err != nil {
			t.Fatalf("verify %s/%d: %v", origin, seq, err)
		}
		if err := u.Apply(r); err != nil {
			t.Fatalf("apply %s/%d: %v", origin, seq, err)
		}
		logged = append(logged, u)
	}
	return logged
}

func treesMatch(a, b *nameserver.Node, path string) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return fmt.Sprintf("node %q: nil mismatch", path)
	}
	if a.Value != b.Value || a.HasValue != b.HasValue || a.Stamp != b.Stamp || a.StampBy != b.StampBy {
		return fmt.Sprintf("node %q: scalar mismatch", path)
	}
	aa, ba := a.AllArcs(), b.AllArcs()
	if len(aa) != len(ba) {
		return fmt.Sprintf("node %q: %d vs %d children", path, len(aa), len(ba))
	}
	for i, arc := range aa {
		if ba[i].Label() != arc.Label() {
			return fmt.Sprintf("node %q: extra child %q", path, arc.Label())
		}
		if d := treesMatch(arc.Node(), ba[i].Node(), path+"/"+arc.Label()); d != "" {
			return d
		}
	}
	return ""
}

// rootsMatch compares every checkpointed field of two roots.
func rootsMatch(t *testing.T, got, want *Root) {
	t.Helper()
	if d := treesMatch(got.Tree.Root, want.Tree.Root, ""); d != "" {
		t.Fatalf("tree mismatch: %s", d)
	}
	if !reflect.DeepEqual(got.Vector, want.Vector) {
		t.Fatalf("vector %v, want %v", got.Vector, want.Vector)
	}
	if got.Clock != want.Clock {
		t.Fatalf("clock %d, want %d", got.Clock, want.Clock)
	}
}

func wireDelta(t *testing.T, d any) *RootDelta {
	t.Helper()
	data, err := pickle.Marshal(d.(*RootDelta))
	if err != nil {
		t.Fatal(err)
	}
	out := &RootDelta{}
	if err := pickle.Unmarshal(data, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// mustFold is foldRoot through the wire, failing the test on an error.
func mustFold(t *testing.T, cur *Root, updates []core.Update) *RootDelta {
	t.Helper()
	d, err := foldRoot(cur, updates)
	if err != nil {
		t.Fatal(err)
	}
	return wireDelta(t, d)
}

// TestRootDeltaRoundTrip: seeded histories of the crash sweeps' update mix —
// Set, Delete, Put, Move — as stamped Replicated entries from three origins,
// with checkpoints at random points. At each, the fold of the entries
// applied since the previous one, through the wire, must rebuild the
// snapshot on the previous one's state, vector and clock included, and land
// where the reference delta of the two snapshots lands.
func TestRootDeltaRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		live, recon, ref := NewRoot().(*Root), NewRoot().(*Root), NewRoot().(*Root)
		prev := live.SnapshotView().(*Root)
		var logged []core.Update
		checkpoints, folded := 0, 0
		for i := 0; i < 400; i++ {
			origin := "abc"[rng.Intn(3):][:1]
			u := &Replicated{Origin: origin, Seq: live.Vector[origin] + 1, Stamp: live.Clock + 1 + uint64(rng.Intn(3)), Inner: genInner(rng, live.Tree, i)}
			if u.Verify(live) != nil || u.Inner.Verify(live.Tree) != nil {
				continue // a no-op's range is refused, for a full image
			}
			if err := u.Apply(live); err != nil {
				t.Fatalf("seed %d update %d: %v", seed, i, err)
			}
			logged = append(logged, u)
			if rng.Intn(12) > 0 {
				continue
			}
			cur := live.SnapshotView().(*Root)
			if err := recon.ApplyDelta(mustFold(t, cur, logged)); err != nil {
				t.Fatalf("seed %d update %d: ApplyDelta: %v", seed, i, err)
			}
			rootsMatch(t, recon, cur)
			if err := ref.ApplyDelta(wireDelta(t, diffRootDelta(cur, prev))); err != nil {
				t.Fatalf("seed %d update %d: ApplyDelta of the reference: %v", seed, i, err)
			}
			rootsMatch(t, ref, recon)
			folded += len(logged)
			prev, logged = cur, nil
			checkpoints++
		}
		if checkpoints < 10 || folded < 200 {
			t.Fatalf("seed %d: degenerate run, %d entries folded over %d checkpoints", seed, folded, checkpoints)
		}
	}
}

// genInner draws an update of the crash sweeps' mix against tr: Set 55%,
// Put 15%, Delete 15% and Move 15% of names that exist where it can.
func genInner(rng *rand.Rand, tr *nameserver.Tree, i int) core.Update {
	labels := []string{"net", "usr", "a", "b"}
	path := func() []string {
		p := make([]string, 1+rng.Intn(3))
		for j := range p {
			p[j] = labels[rng.Intn(len(labels))]
		}
		return p
	}
	existing := func() []string {
		p := path()
		for len(p) > 1 && tr.FindNode(p) == nil {
			p = p[:len(p)-1]
		}
		return p
	}
	switch r := rng.Intn(100); {
	case r < 55:
		return &nameserver.SetValue{Path: path(), Value: fmt.Sprintf("v%d", i)}
	case r < 70:
		sub := &nameserver.Node{Value: fmt.Sprintf("sub%d", i), HasValue: true, Children: map[string]*nameserver.Node{}}
		for j := 0; j < 2+rng.Intn(3); j++ {
			sub.Children[labels[rng.Intn(len(labels))]] = &nameserver.Node{Value: fmt.Sprintf("sub%d-%d", i, j), HasValue: true}
		}
		return &nameserver.PutSubtree{Path: path(), Subtree: sub}
	case r < 85:
		return &nameserver.DeleteSubtree{Path: existing()}
	}
	return &nameserver.Move{From: existing(), To: path()}
}

// TestRootDeltaFullFallback: a range holding a snapshot install, which
// replaces the root wholesale, is not folded — the checkpoint falls back to
// a full image.
func TestRootDeltaFullFallback(t *testing.T) {
	live := NewRoot().(*Root)
	applyN(t, live, "a", 1, 6)
	logged := applyN(t, live, "a", 7, 1)
	cur := live.SnapshotView().(*Root)
	install := &installSnapshot{Snap: cur}
	if _, err := foldRoot(cur, append(logged, install)); err == nil {
		t.Error("a range holding an install folded")
	}
}

// TestRootDeltaEmpty: no changes, no ops.
func TestRootDeltaEmpty(t *testing.T) {
	live := NewRoot().(*Root)
	applyN(t, live, "a", 1, 3)
	wire := mustFold(t, live.SnapshotView().(*Root), nil)
	if wire.DeltaOps() != 0 || wire.Vector["a"] != 3 || wire.Clock != 3 {
		t.Errorf("the fold of no updates: %+v", wire)
	}
}

// TestRootDeltaNilRefused: a delta that decodes to a nil pointer, which a
// damaged or hostile delta file can, is an error, not a panic.
func TestRootDeltaNilRefused(t *testing.T) {
	r := NewRoot().(*Root)
	if err := r.ApplyDelta((*RootDelta)(nil)); err == nil {
		t.Fatal("a nil *RootDelta applied")
	}
	if err := r.Tree.ApplyDelta((*nameserver.TreeDelta)(nil)); err == nil {
		t.Fatal("a nil *TreeDelta applied")
	}
}

// TestInstallInRangeWritesFullImage: a checkpoint whose log range holds a
// snapshot install, which replaces the root wholesale, writes a full image,
// where the same range without it writes a delta; Close and Open return what
// memory held.
func TestInstallInRangeWritesFullImage(t *testing.T) {
	fs := vfs.NewMem(1)
	n, err := Open(Config{Name: "b", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	set := func(name string) {
		t.Helper()
		if err := n.Set(name, "v"); err != nil {
			t.Fatal(err)
		}
	}
	checkpointKind := func(want string) {
		t.Helper()
		if err := n.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		v := n.Store().Version()
		if got := map[bool]string{true: "delta", false: "full"}[vfs.Exists(fs, checkpoint.DeltaName(v))]; got != want {
			t.Fatalf("checkpoint %d wrote a %s image, want %s", v, got, want)
		}
	}
	for i := 0; i < 50; i++ {
		set(fmt.Sprintf("host/h%d", i))
	}
	checkpointKind("full")
	set("host/h1")
	checkpointKind("delta")
	// A peer's snapshot holds all of b but its next update, which b's log
	// holds, and one update of its own.
	var snap Root
	if err := n.Store().View(func(root any) error {
		data, err := pickle.Marshal(root)
		if err == nil {
			err = pickle.Unmarshal(data, &snap)
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	set("host/h2")
	snap.Vector["z"], snap.Clock = 1, 99
	snap.Tree.SetStamped([]string{"from", "z"}, "v", 99, "z")
	if err := n.installSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	set("host/h3")
	if v, _ := n.Vector(); v["b"] != 53 || v["z"] != 1 {
		t.Fatalf("vector after the install and one more Set: %v, want b:53 z:1", v)
	}
	checkpointKind("full")

	state := func(n *Node) string {
		t.Helper()
		var out []string
		if err := n.Store().View(func(root any) error {
			r := root.(*Root)
			out = append(out, fmt.Sprint(r.Vector, r.Clock))
			return r.Tree.Enumerate(nil, func(name, value string) error {
				out = append(out, name+"="+value)
				return nil
			})
		}); err != nil {
			t.Fatal(err)
		}
		return strings.Join(out, "\n")
	}
	want := state(n)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err = Open(Config{Name: "b", FS: fs}); err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := state(n); got != want {
		t.Fatalf("restart recovered\n%s\nmemory held\n%s", got, want)
	}
}
