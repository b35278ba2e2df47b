package replica

import (
	"fmt"
	"reflect"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
)

// applyN applies n replicated SetValue updates from origin to r, starting
// at per-origin sequence startSeq, stamping from the root's clock.
func applyN(t *testing.T, r *Root, origin string, startSeq uint64, n int) {
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
	}
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
		if ba[i].Label != arc.Label {
			return fmt.Sprintf("node %q: extra child %q", path, arc.Label)
		}
		if d := treesMatch(arc.Node(), ba[i].Node(), path+"/"+arc.Label); d != "" {
			return d
		}
	}
	return ""
}

// rootsMatch compares every checkpointed field of two roots, history
// included.
func rootsMatch(t *testing.T, got, want *Root) {
	t.Helper()
	if d := treesMatch(got.Tree.Root, want.Tree.Root, ""); d != "" {
		t.Fatalf("tree mismatch: %s", d)
	}
	if !reflect.DeepEqual(got.Vector, want.Vector) {
		t.Fatalf("vector %v, want %v", got.Vector, want.Vector)
	}
	if got.Clock != want.Clock || got.HistoryCap != want.HistoryCap {
		t.Fatalf("clock/cap %d/%d, want %d/%d", got.Clock, got.HistoryCap, want.Clock, want.HistoryCap)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("history length %d, want %d", len(got.History), len(want.History))
	}
	for i := range got.History {
		if !entrySame(got.History[i], want.History[i]) {
			t.Fatalf("history[%d] = %+v, want %+v", i, got.History[i], want.History[i])
		}
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

// TestRootDeltaRoundTrip: recovery-style reconstruction — a root holding
// the previous snapshot's state plus the wire delta lands exactly on the
// current snapshot, history and all.
func TestRootDeltaRoundTrip(t *testing.T) {
	mk := NewRootWithCap(64)
	live := mk().(*Root)
	recon := mk().(*Root)
	applyN(t, live, "a", 1, 10)
	applyN(t, live, "b", 1, 5)
	applyN(t, recon, "a", 1, 10)
	applyN(t, recon, "b", 1, 5)
	prev := live.SnapshotView().(*Root)

	applyN(t, live, "a", 11, 3)
	applyN(t, live, "c", 1, 2)
	cur := live.SnapshotView().(*Root)

	d, err := cur.DeltaSince(prev)
	if err != nil {
		t.Fatal(err)
	}
	wire := wireDelta(t, d)
	if wire.HistoryFull {
		t.Error("append-only histories should not need the full fallback")
	}
	if len(wire.HistoryAppended) != 5 {
		t.Errorf("appended %d entries, want 5", len(wire.HistoryAppended))
	}
	if err := recon.ApplyDelta(wire); err != nil {
		t.Fatal(err)
	}
	rootsMatch(t, recon, cur)
}

// TestRootDeltaHistoryTrim: the cap forces drops from the front; the delta
// must carry the dropped count and reconstruct the trimmed history.
func TestRootDeltaHistoryTrim(t *testing.T) {
	mk := NewRootWithCap(8)
	live := mk().(*Root)
	recon := mk().(*Root)
	applyN(t, live, "a", 1, 8)
	applyN(t, recon, "a", 1, 8)
	prev := live.SnapshotView().(*Root)

	applyN(t, live, "a", 9, 5) // pushes 5 entries out of the capped history
	cur := live.SnapshotView().(*Root)

	wire := wireDelta(t, mustRootDelta(t, cur, prev))
	if wire.HistoryDropped != 5 || len(wire.HistoryAppended) != 5 {
		t.Errorf("dropped %d appended %d, want 5/5", wire.HistoryDropped, len(wire.HistoryAppended))
	}
	if err := recon.ApplyDelta(wire); err != nil {
		t.Fatal(err)
	}
	rootsMatch(t, recon, cur)
}

// TestRootDeltaHistoryOverrun: more appends than the cap — every prev entry
// is gone and the delta ships the whole (capped) history.
func TestRootDeltaHistoryOverrun(t *testing.T) {
	mk := NewRootWithCap(4)
	live := mk().(*Root)
	recon := mk().(*Root)
	applyN(t, live, "a", 1, 4)
	applyN(t, recon, "a", 1, 4)
	prev := live.SnapshotView().(*Root)

	applyN(t, live, "a", 5, 10)
	cur := live.SnapshotView().(*Root)

	wire := wireDelta(t, mustRootDelta(t, cur, prev))
	if err := recon.ApplyDelta(wire); err != nil {
		t.Fatal(err)
	}
	rootsMatch(t, recon, cur)
}

// TestRootDeltaFullFallback: a history that was replaced wholesale (as a
// restore does) breaks the append-only relation; the delta must detect the
// mismatch and fall back to carrying the full history rather than splicing
// garbage.
func TestRootDeltaFullFallback(t *testing.T) {
	mk := NewRootWithCap(64)
	live := mk().(*Root)
	recon := mk().(*Root)
	applyN(t, live, "a", 1, 6)
	applyN(t, recon, "a", 1, 6)
	prev := live.SnapshotView().(*Root)

	// Wholesale replacement keeping the vector sum plausible: rewrite the
	// entries' stamps so boundary checks cannot match, then append one.
	replaced := make([]Entry, len(live.History))
	for i, e := range live.History {
		e.Stamp += 1000
		replaced[i] = e
	}
	live.History = replaced
	applyN(t, live, "a", 7, 1)
	cur := live.SnapshotView().(*Root)

	wire := wireDelta(t, mustRootDelta(t, cur, prev))
	if !wire.HistoryFull {
		t.Fatal("replaced history not detected; delta would splice garbage")
	}
	if err := recon.ApplyDelta(wire); err != nil {
		t.Fatal(err)
	}
	rootsMatch(t, recon, cur)
}

// TestRootDeltaEmpty: no changes, no ops, empty history delta.
func TestRootDeltaEmpty(t *testing.T) {
	mk := NewRootWithCap(16)
	live := mk().(*Root)
	applyN(t, live, "a", 1, 3)
	v1 := live.SnapshotView().(*Root)
	v2 := live.SnapshotView().(*Root)
	wire := wireDelta(t, mustRootDelta(t, v2, v1))
	if wire.DeltaOps() != 0 || len(wire.HistoryAppended) != 0 || wire.HistoryDropped != 0 {
		t.Errorf("delta of identical snapshots: %+v", wire)
	}
}

func mustRootDelta(t *testing.T, cur, prev *Root) any {
	t.Helper()
	d, err := cur.DeltaSince(prev)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestRootDeltaNilRefused: a delta that decodes to a nil pointer, which a
// damaged or hostile delta file can, is an error, not a panic.
func TestRootDeltaNilRefused(t *testing.T) {
	r := NewRootWithCap(4)().(*Root)
	if err := r.ApplyDelta((*RootDelta)(nil)); err == nil {
		t.Fatal("a nil *RootDelta applied")
	}
	if err := r.Tree.ApplyDelta((*nameserver.TreeDelta)(nil)); err == nil {
		t.Fatal("a nil *TreeDelta applied")
	}
}
