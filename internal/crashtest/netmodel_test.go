package crashtest

import (
	"reflect"
	"strings"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/netsim"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// The model: a plain flat map from slash-joined path to value — an
// implementation of the name service so simple it is obviously correct.
// The database and the model agree at every quiescent point exactly when
// every name a client could Lookup resolves identically in both.

func modelKey(parts []string) string { return strings.Join(parts, "/") }

func modelDeletePrefix(m map[string]string, key string) {
	delete(m, key)
	for k := range m {
		if strings.HasPrefix(k, key+"/") {
			delete(m, k)
		}
	}
}

func modelInsertSubtree(m map[string]string, key string, n *nameserver.Node) {
	if n == nil {
		return
	}
	if n.HasValue {
		m[key] = n.Value
	}
	for _, a := range n.AllArcs() { // the form Verify folds the update's subtree into
		modelInsertSubtree(m, key+"/"+a.Label(), a.Node())
	}
	for arc, child := range n.Children { // the form the generator writes
		modelInsertSubtree(m, key+"/"+arc, child)
	}
}

// modelApply mirrors one update into the model.
func modelApply(m map[string]string, u core.Update) {
	switch v := u.(type) {
	case *nameserver.SetValue:
		m[modelKey(v.Path)] = v.Value
	case *nameserver.DeleteSubtree:
		modelDeletePrefix(m, modelKey(v.Path))
	case *nameserver.PutSubtree:
		key := modelKey(v.Path)
		modelDeletePrefix(m, key)
		modelInsertSubtree(m, key, v.Subtree)
	case *nameserver.Move:
		from, to := modelKey(v.From), modelKey(v.To)
		moved := make(map[string]string)
		for k, val := range m {
			if k == from || strings.HasPrefix(k, from+"/") {
				moved[to+k[len(from):]] = val
				delete(m, k)
			}
		}
		for k, val := range moved {
			m[k] = val
		}
	}
}

// valueMap extracts every bound name from a replica's tree.
func valueMap(t *testing.T, n *replica.Node) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := n.Store().View(func(root any) error {
		r, ok := root.(*replica.Root)
		if !ok {
			t.Fatalf("root is %T", root)
		}
		var walk func(node *nameserver.Node, path string)
		walk = func(node *nameserver.Node, path string) {
			if node.HasValue {
				out[path] = node.Value
			}
			for _, a := range node.AllArcs() {
				key := a.Label()
				if path != "" {
					key = path + "/" + a.Label()
				}
				walk(a.Node(), key)
			}
		}
		walk(r.Tree.Root, "")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestModelOracle drives a replica pair with a seeded op stream against the
// flat-map model: writers alternate between the nodes at quiescent points,
// one phase runs partitioned, the acking node crashes and restarts midway,
// and after every quiescent point both replicas must agree with the model
// name for name.
func TestModelOracle(t *testing.T) {
	const (
		seed   = 11
		ops    = 60
		phases = 6
	)
	p := makePlan(seed, ops)
	model := make(map[string]string)

	nw := netsim.New(seed, netsim.Options{Profile: hostileProfile})
	defer nw.Close()
	ffs := faultfs.New(vfs.NewMem(seed), faultfs.Options{CrashAt: faultfs.Never})
	// A pair at W = 1, each node pushing to the other.
	pair := replica.GroupConfig{Members: []replica.Member{{Name: "a", Addr: "netsim"}, {Name: "b", Addr: "netsim"}}, W: 1}
	open := func(name string, fs vfs.FS) (*endpoint, error) {
		return openEndpoint(nw, replica.Config{Name: name, FS: fs, Policy: netPolicy, GroupConfig: pair})
	}
	a, err := open("a", ffs)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { a.close() }()
	b, err := open("b", vfs.NewMem(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	connect := func(from *endpoint, to string) *rpc.Client {
		c := rpc.NewClientDialer(nw.Dialer(from.node.Name(), to))
		if err := from.node.Connect(to, c); err != nil {
			t.Fatal(err)
		}
		return c
	}
	ab, ba := connect(a, "b"), connect(b, "a")

	// quiesce clears the weather, converges the pair, restores the
	// weather, and checks both replicas against the model.
	quiesce := func(point string) {
		t.Helper()
		nw.SetProfile(netsim.Profile{})
		for round := 0; ; round++ {
			if err := a.node.SyncWith(ab); err != nil {
				t.Fatalf("%s: sync a<-b: %v", point, err)
			}
			if err := b.node.SyncWith(ba); err != nil {
				t.Fatalf("%s: sync b<-a: %v", point, err)
			}
			va, _ := a.node.Vector()
			vb, _ := b.node.Vector()
			if reflect.DeepEqual(va, vb) {
				break
			}
			if round > 10 {
				t.Fatalf("%s: replicas failed to converge", point)
			}
		}
		for name, n := range map[string]*replica.Node{"a": a.node, "b": b.node} {
			if got := valueMap(t, n); !reflect.DeepEqual(got, model) {
				t.Fatalf("%s: node %s diverges from the model:\n got  %v\n want %v", point, name, got, model)
			}
		}
		nw.SetProfile(hostileProfile)
	}

	perPhase := ops / phases
	for phase := 0; phase < phases; phase++ {
		// Writers switch only at quiescent points, so the sequential
		// model stays exact: the writer starts from the converged state,
		// and its Lamport stamps exceed everything already applied.
		writer := a.node
		if phase%2 == 1 {
			writer = b.node
		}
		if phase == 2 {
			// This phase's updates commit during a partition.
			nw.Partition("a", "b")
		}
		for i := phase * perPhase; i < (phase+1)*perPhase; i++ {
			u := p.batch(i, i+1)[0]
			if err := writer.Apply(u); err != nil {
				t.Fatalf("phase %d: update %d not acknowledged: %v", phase, i, err)
			}
			modelApply(model, u)
		}
		if phase == 2 {
			nw.Heal("a", "b")
		}
		if phase == 3 {
			// Crash and restart node a between phases: the model must
			// still hold across recovery. The quiescent point just
			// before this phase synced everything, and phase 3's writer
			// commits are synced at ack time, so the durable image holds
			// the full prefix.
			frozen := ffs.Snapshot()
			a.close()
			restarted, err := open("a", frozen)
			if err != nil {
				t.Fatalf("restart of node a: %v", err)
			}
			a = restarted
			ab = connect(a, "b")
		}
		quiesce("phase " + string(rune('0'+phase)))
	}
	if len(model) == 0 {
		t.Fatal("workload left the model empty; generator broken")
	}
}
