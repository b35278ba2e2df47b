package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

// applyEntriesOneByOne is the reference applyEntries is checked against:
// one store commit — one log sync — per entry, the loop a push used to run.
func applyEntriesOneByOne(n *Node, entries []Entry) (applied int, err error) {
	for _, e := range entries {
		aerr := n.store.Apply(e.update())
		switch {
		case aerr == nil:
			applied++
		case errors.Is(aerr, ErrAlreadyApplied), errors.Is(aerr, ErrSequenceGap):
		case err == nil:
			err = aerr
		}
	}
	return applied, err
}

// TestApplyEntriesMatchesPerEntryLoop drives two nodes with the same seeded
// stream of push batches — in-order runs from three origins salted with
// duplicates, sequence gaps, reordering and entries whose inner update the
// receiver must refuse — one through applyEntries' batched commit, one
// through the per-entry reference. Applied counts, reported errors, vectors,
// histories and trees must agree after every batch.
func TestApplyEntriesMatchesPerEntryLoop(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		open := func(fsSeed int64) *Node {
			n, err := Open(Config{Name: "m", FS: vfs.NewMem(fsSeed), HistoryCap: 16})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			return n
		}
		batched, reference := open(1), open(2)

		origins := []string{"x", "y", "z"}
		next := map[string]uint64{"x": 1, "y": 1, "z": 1}
		var sent []Entry // everything generated so far, for duplicates
		stamp := uint64(0)
		resumed, refused := 0, 0 // batches that resumed past a refusal; that reported one
		for round := 0; round < 40; round++ {
			var batch []Entry
			for len(batch) < 1+rng.Intn(24) {
				origin := origins[rng.Intn(len(origins))]
				switch p := rng.Intn(16); {
				case p == 0 && len(sent) > 0: // duplicate of something already sent
					batch = append(batch, sent[rng.Intn(len(sent))])
					continue
				case p == 1: // gap: skip a sequence number for good measure
					next[origin]++
				}
				stamp++
				path := []string{origin, fmt.Sprintf("k%d", rng.Intn(8))}
				var inner core.Update = &nameserver.SetValue{Path: path, Value: fmt.Sprintf("v%d", stamp)}
				if rng.Intn(8) == 0 {
					// Refused wherever the name is not bound at that point.
					inner = &nameserver.DeleteSubtree{Path: []string{origin, fmt.Sprintf("k%d", rng.Intn(24))}}
				}
				e := Entry{Origin: origin, Seq: next[origin], Stamp: stamp, Inner: inner}
				next[origin]++
				batch = append(batch, e)
				sent = append(sent, e)
			}
			if rng.Intn(3) == 0 { // reorder inside the push
				i, j := rng.Intn(len(batch)), rng.Intn(len(batch))
				batch[i], batch[j] = batch[j], batch[i]
			}
			// A gap left by an earlier round closes now and then, so runs
			// behind it become appliable (as anti-entropy would arrange).
			if rng.Intn(2) == 0 {
				for _, o := range origins {
					v, _ := reference.Vector()
					next[o] = v[o] + 1
				}
			}

			gotN, gotErr := batched.applyEntries(batch)
			wantN, wantErr := applyEntriesOneByOne(reference, batch)
			if gotN != wantN {
				t.Fatalf("seed %d round %d: applied %d of %d, per-entry loop applied %d", seed, round, gotN, len(batch), wantN)
			}
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Fatalf("seed %d round %d: error %v, per-entry loop reported %v", seed, round, gotErr, wantErr)
			}
			if wantN > 0 && wantN < len(batch) {
				resumed++
			}
			if wantErr != nil {
				refused++
			}
			gv, _ := batched.Vector()
			wv, _ := reference.Vector()
			if !reflect.DeepEqual(gv, wv) {
				t.Fatalf("seed %d round %d: vector %v, per-entry loop %v", seed, round, gv, wv)
			}
		}
		var got, want *Root
		batched.store.View(func(root any) error { got = root.(*Root); return nil })
		reference.store.View(func(root any) error { want = root.(*Root); return nil })
		rootsMatch(t, got, want)
		if v, _ := batched.Vector(); v["x"]+v["y"]+v["z"] < 60 || resumed < 10 || refused < 3 {
			t.Fatalf("seed %d: vector %v, %d batches resumed past a refusal, %d reported one: the stream does not exercise the resume", seed, v, resumed, refused)
		}
	}
}

// TestApplyEntriesKeepsFirstError: of several entries refused for reasons a
// later round cannot cure, the first is the one reported.
func TestApplyEntriesKeepsFirstError(t *testing.T) {
	n, err := Open(Config{Name: "m", FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	entries := []Entry{
		{Origin: "x", Seq: 1, Stamp: 1, Inner: &nameserver.DeleteSubtree{Path: []string{"first"}}},
		{Origin: "x", Seq: 1, Stamp: 2, Inner: &nameserver.SetValue{Path: []string{"k"}, Value: "v"}},
		{Origin: "x", Seq: 2, Stamp: 3, Inner: &nameserver.DeleteSubtree{Path: []string{"second"}}},
	}
	applied, err := n.applyEntries(entries)
	if applied != 1 {
		t.Errorf("applied %d entries, want 1", applied)
	}
	if err == nil || !errors.Is(err, nameserver.ErrNotFound) || !strings.Contains(err.Error(), "first") {
		t.Errorf("reported %v, want the first refusal (of %q)", err, "first")
	}
}

// TestRepairPushCostsOneSync: a 64-entry repair push reaches the member's
// disk as one store batch, so it costs one log sync (two allowed: a
// checkpoint policy may add its own), not one per entry.
func TestRepairPushCostsOneSync(t *testing.T) {
	cfs := vfs.NewCounting(vfs.NewMem(1))
	n, err := Open(Config{Name: "m", FS: cfs})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	entries := make([]Entry, 64)
	for i := range entries {
		entries[i] = Entry{Origin: "p", Seq: uint64(i + 1), Stamp: uint64(i + 1),
			Inner: &nameserver.SetValue{Path: []string{"repair", fmt.Sprintf("k%d", i)}, Value: "v"}}
	}
	cfs.Reset()
	var reply PushReply
	if err := NewService(n).Push(&PushArgs{Entries: entries}, &reply, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if reply.Applied != len(entries) || reply.Vector["p"] != uint64(len(entries)) {
		t.Fatalf("push applied %d entries, vector %v", reply.Applied, reply.Vector)
	}
	if got := cfs.Syncs(); got > 2 {
		t.Errorf("a %d-entry push cost the member %d syncs, want <= 2", len(entries), got)
	}
}
