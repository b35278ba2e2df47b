package replica

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// Property: under any interleaving of local updates and pairwise syncs,
// once every pair has synced in both directions with no further updates,
// all replicas hold identical vectors and identical trees.
func TestConvergenceProperty(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := makeCluster(t, "n0", "n1", "n2")
		// Sever automatic propagation by applying straight to stores.
		apply := func(n *Node, key, val string) {
			parts, _ := nameserver.SplitPath(key)
			var seq, stamp uint64
			n.Store().View(func(root any) error {
				seq = root.(*Root).Vector[n.name] + 1
				stamp = root.(*Root).Clock + 1
				return nil
			})
			if err := n.Store().Apply(&Replicated{Origin: n.name, Seq: seq, Stamp: stamp, Inner: &nameserver.SetValue{Path: parts, Value: val}}); err != nil {
				t.Fatal(err)
			}
		}
		// Random updates and random one-directional syncs.
		for step := 0; step < 40; step++ {
			switch rng.Intn(3) {
			case 0, 1:
				i := rng.Intn(3)
				apply(c.nodes[i], fmt.Sprintf("k%d", rng.Intn(10)), fmt.Sprintf("s%d-%d", seed, step))
			case 2:
				i, j := rng.Intn(3), rng.Intn(3)
				if i != j {
					from := c.nodes[j].Name()
					_ = c.nodes[i].SyncWith(c.clients[c.nodes[i].Name()][from])
				}
			}
		}
		// Final full mesh sync, twice for transitivity.
		for round := 0; round < 2; round++ {
			for i := 0; i < 3; i++ {
				for j := 0; j < 3; j++ {
					if i != j {
						if err := c.nodes[i].SyncWith(c.clients[c.nodes[i].Name()][c.nodes[j].Name()]); err != nil {
							t.Fatalf("seed %d: sync: %v", seed, err)
						}
					}
				}
			}
		}
		// All vectors equal.
		v0, _ := c.nodes[0].Vector()
		for i := 1; i < 3; i++ {
			vi, _ := c.nodes[i].Vector()
			if len(vi) != len(v0) {
				t.Fatalf("seed %d: vector size mismatch %v vs %v", seed, vi, v0)
			}
			for k, v := range v0 {
				if vi[k] != v {
					t.Fatalf("seed %d: vectors diverged: %v vs %v", seed, vi, v0)
				}
			}
		}
		// All trees equal on the touched keys.
		for k := 0; k < 10; k++ {
			key := fmt.Sprintf("k%d", k)
			ref, refErr := c.nodes[0].Lookup(key)
			for i := 1; i < 3; i++ {
				got, gotErr := c.nodes[i].Lookup(key)
				if (refErr == nil) != (gotErr == nil) || got != ref {
					t.Fatalf("seed %d: %s diverged: %q(%v) vs %q(%v)", seed, key, ref, refErr, got, gotErr)
				}
			}
		}
	}
}

// TestServiceMethods: the replica service is three RPCs — Push brings a
// Catchup into a member, Pull asks one for a Catchup, Read is a
// bounded-staleness enquiry.
func TestServiceMethods(t *testing.T) {
	n, err := Open(Config{Name: "a", FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	reg := obs.NewRegistry()
	srv := rpc.NewServer()
	srv.Instrument(reg, nil)
	if err := srv.Register("Replica", NewService(n)); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, name := range reg.Names() {
		if m, ok := strings.CutPrefix(name, "rpc_calls_Replica."); ok {
			got = append(got, m)
		}
	}
	slices.Sort(got)
	if want := []string{"Pull", "Push", "Read"}; !slices.Equal(got, want) {
		t.Fatalf("Replica registers %v, want %v", got, want)
	}
}

// TestSnapshotIsolatedFromLiveTree: a Pull answered with a root hands the
// rpc layer the published root itself (no copy under the lock); the copy a
// peer receives is the wire's, and mutating it must not reach the live
// database.
func TestSnapshotIsolatedFromLiveTree(t *testing.T) {
	c := makeCluster(t, "a", "b")
	na := c.nodes[0]
	na.Set("k", "v1")

	var snap Catchup
	if err := c.clients["b"]["a"].Call("Replica.Pull", &PullArgs{}, &snap); err != nil {
		t.Fatal(err)
	}
	snap.Root.Tree.FindNode([]string{"k"}).Value = "hacked"
	if v, _ := na.Lookup("k"); v != "v1" {
		t.Error("snapshot aliases the live tree")
	}
}

func TestPushBatchAppliesInOrder(t *testing.T) {
	c := makeCluster(t, "a", "b")
	nb := c.nodes[1]
	svc := NewService(nb)
	var entries []Entry
	for i := 1; i <= 5; i++ {
		parts, _ := nameserver.SplitPath(fmt.Sprintf("batch/k%d", i))
		entries = append(entries, Entry{Origin: "x", Seq: uint64(i), Inner: &nameserver.SetValue{Path: parts, Value: "v"}})
	}
	// Deliver out of order within one push: later entries hit the gap
	// check, so only the in-order prefix lands; a second push completes.
	shuffled := []Entry{entries[1], entries[0], entries[2], entries[4], entries[3]}
	var reply PushReply
	if err := svc.Push(&Catchup{Entries: shuffled}, &reply, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	var second PushReply
	if err := svc.Push(&Catchup{Entries: entries}, &second, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if _, err := nb.Lookup(fmt.Sprintf("batch/k%d", i)); err != nil {
			t.Errorf("k%d missing after reordered pushes: %v", i, err)
		}
	}
	vec, _ := nb.Vector()
	if vec["x"] != 5 {
		t.Errorf("vector: %v", vec)
	}
}
