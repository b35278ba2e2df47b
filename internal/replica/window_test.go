package replica

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/vfs"
)

// windowKey identifies a history entry in the window model.
type windowKey struct {
	origin string
	seq    uint64
}

func historyKeys(h []Entry) []windowKey {
	out := make([]windowKey, len(h))
	for i, e := range h {
		out[i] = windowKey{e.Origin, e.Seq}
	}
	return out
}

// TestHistoryWindowSnapshotsImmutable is the window invariant as a property:
// with a small cap the history slides over a shared backing array for many
// times its length, every SnapshotView ever taken is held to the end, and
// each must still read exactly the window the model had when it was taken —
// the writer stored only at or past every snapshot's end, and re-slicing
// rewrote nothing. A concurrent reader walks the newest snapshot the whole
// time, so -race sees any store into a slot a snapshot can reach.
func TestHistoryWindowSnapshotsImmutable(t *testing.T) {
	const limit = 8
	const applies = 12 * limit
	rng := rand.New(rand.NewSource(1))
	r := NewRootWithCap(limit)().(*Root)

	var latest atomic.Pointer[Root]
	latest.Store(r.SnapshotView().(*Root))
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			snap := latest.Load()
			next := map[string]uint64{}
			for _, e := range snap.History {
				if want, seen := next[e.Origin]; seen && e.Seq != want {
					t.Errorf("reader: %s/%d follows %s/%d in one snapshot", e.Origin, e.Seq, e.Origin, want-1)
					return
				}
				next[e.Origin] = e.Seq + 1
			}
		}
	}()

	var model []windowKey
	var snaps []*Root
	var want [][]windowKey
	origins := []string{"a", "b", "c"}
	for i := 0; i < applies; i++ {
		origin := origins[rng.Intn(len(origins))]
		applyN(t, r, origin, r.Vector[origin]+1, 1)
		model = append(model, windowKey{origin, r.Vector[origin]})
		if len(model) > limit {
			model = model[1:]
		}
		snap := r.SnapshotView().(*Root)
		latest.Store(snap)
		snaps = append(snaps, snap)
		want = append(want, append([]windowKey(nil), model...))
	}
	close(stop)
	wg.Wait()

	for i, snap := range snaps {
		got := historyKeys(snap.History)
		if fmt.Sprint(got) != fmt.Sprint(want[i]) {
			t.Fatalf("snapshot after apply %d reads %v, want %v", i+1, got, want[i])
		}
	}
}

// fullHistoryRoot returns a root whose history holds exactly limit entries,
// and an update generator continuing origin "a"'s sequence on one fixed
// name, so the tree contributes nothing to what an Apply allocates.
func fullHistoryRoot(tb testing.TB, limit int) (*Root, func() *Replicated) {
	r := NewRootWithCap(limit)().(*Root)
	inner := &nameserver.SetValue{Path: []string{"a", "k"}, Value: "v"}
	next := func() *Replicated {
		return &Replicated{Origin: "a", Seq: r.Vector["a"] + 1, Stamp: r.Clock + 1, Inner: inner}
	}
	for i := 0; i < limit; i++ {
		if err := next().Apply(r); err != nil {
			tb.Fatal(err)
		}
	}
	return r, next
}

// TestApplyFullHistoryAllocCeiling: once the history is full an Apply must
// not pay for the history's length. Amortised over 2×cap applies — several
// of append's reallocations — an Apply allocates under 1 KB; copying the
// 4096-entry window on every Apply allocated about 196 KB.
func TestApplyFullHistoryAllocCeiling(t *testing.T) {
	r, next := fullHistoryRoot(t, DefaultHistoryCap)
	const applies = 2 * DefaultHistoryCap
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < applies; i++ {
		if err := next().Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perApply := (after.TotalAlloc - before.TotalAlloc) / applies
	t.Logf("%d B allocated per Apply at a full %d-entry history", perApply, DefaultHistoryCap)
	if perApply >= 1024 {
		t.Errorf("%d B allocated per Apply at a full %d-entry history, want < 1024", perApply, DefaultHistoryCap)
	}
	if len(r.History) != DefaultHistoryCap {
		t.Errorf("history holds %d entries, want %d", len(r.History), DefaultHistoryCap)
	}
}

// BenchmarkReplicatedApplyFullHistory reports what one Apply costs once the
// default-size history is full; B/op is the figure the window trim moved.
func BenchmarkReplicatedApplyFullHistory(b *testing.B) {
	r, next := fullHistoryRoot(b, DefaultHistoryCap)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := next().Apply(r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReplayHistoryCostLinear: restart replays the log through the same
// Apply, so a log of 2×cap entries must cost O(entries) in history copying,
// not O(entries × cap). Everything Open allocates is charged to the replayed
// entries; at a cap of 1024 a per-trim copy alone is 48 KB for each of the
// second thousand entries, 24 KB averaged over all of them.
func TestReplayHistoryCostLinear(t *testing.T) {
	const limit = 1024
	const entries = 2 * limit
	fs := vfs.NewMem(1)
	n, err := Open(Config{Name: "a", FS: fs, HistoryCap: limit, UnsafeNoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < entries; i++ {
		if err := n.Set(fmt.Sprintf("k%d", i%16), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n, err = Open(Config{Name: "a", FS: fs, HistoryCap: limit})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if got := n.Store().Stats().RestartEntries; got != entries {
		t.Fatalf("restart replayed %d entries, want %d", got, entries)
	}
	perEntry := (after.TotalAlloc - before.TotalAlloc) / entries
	t.Logf("%d B allocated per replayed entry (cap %d)", perEntry, limit)
	if perEntry >= 8<<10 {
		t.Errorf("%d B allocated per replayed entry at cap %d, want < 8 KB: replay is copying the history", perEntry, limit)
	}
	err = n.Store().View(func(root any) error {
		r := root.(*Root)
		if len(r.History) != limit || r.History[0].Seq != entries-limit+1 || r.History[limit-1].Seq != entries {
			t.Errorf("replayed history holds %d entries [%d..%d], want the last %d of %d",
				len(r.History), r.History[0].Seq, r.History[len(r.History)-1].Seq, limit, entries)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
