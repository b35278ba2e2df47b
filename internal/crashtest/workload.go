// Package crashtest is a deterministic torture harness for the store: one
// sweep driver (Run) that replays a seeded workload of name-server updates
// once per fault point and checks the paper's durability contract after
// each. The fault is a parameter. A crash sweep counts the N mutating
// file-system operations the workload performs and — for every crash point
// n in [0, N] — replays it on a fresh file system that loses power exactly
// before operation n; a partition sweep cuts, before every update k, as
// many group members off a simulated network as the write quorum can do
// without. So is the subject: a bare name-server store, or one member of a
// replica group. Either way the tortured node then reopens its durable
// image through the normal restart path (checkpoint load + log replay), or
// carries on through the healed network, and:
//
//   - every update acknowledged to the client before the fault is present
//     afterwards, on the node or on the members its quorum put it on;
//   - no unacknowledged update is half-applied (a multi-arc PutSubtree is
//     one log entry: all or nothing);
//   - the recovered state equals, bit for bit, the in-memory oracle of the
//     acknowledged prefix — and after catch-up (replaying the remaining
//     updates, one anti-entropy round with every member) the whole group
//     equals the oracle of the full workload.
//
// Because the workload, the file-system op indexing, the network's fault
// schedule and the recovery path are all deterministic, any violation is
// replayable from just (seed, point).
package crashtest

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"sort"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
)

// plan is a recorded workload: a deterministic update sequence together
// with the oracle fingerprint after every prefix. One plan is shared by
// every crash-point replay, so nothing may write to its updates: whoever
// commits them takes them from batch.
type plan struct {
	updates []core.Update
	// fp[k] is the fingerprint of the oracle tree after the first k
	// updates; len(fp) == len(updates)+1.
	fp []uint64
}

// makePlan generates ops updates from seed. Each update is produced against
// a simulated oracle tree so that its preconditions hold at the point in
// the sequence where it runs — which also makes the tail of the plan
// replayable against any correctly recovered prefix.
func makePlan(seed int64, ops int) *plan {
	rng := rand.New(rand.NewSource(seed))
	oracle := nameserver.NewTree()
	p := &plan{fp: make([]uint64, 0, ops+1)}
	p.fp = append(p.fp, fingerprintTree(oracle))
	for i := 0; i < ops; i++ {
		p.updates = append(p.updates, genUpdate(rng, oracle, i))
		u := p.batch(i, i+1)[0]
		if err := u.Verify(oracle); err != nil {
			// The generator only emits valid updates; a failure here is
			// a bug in the generator itself.
			panic(fmt.Sprintf("crashtest: generated invalid update %d: %v", i, err))
		}
		if err := u.Apply(oracle); err != nil {
			panic(fmt.Sprintf("crashtest: oracle apply %d: %v", i, err))
		}
		p.fp = append(p.fp, fingerprintTree(oracle))
	}
	return p
}

// batch returns updates [lo, hi) of the plan for one committer. A
// PutSubtree's Verify replaces its map-form subtree (randSubtree writes that
// form on purpose) with the folded one it logs, so each committer gets a
// PutSubtree of its own around the shared, read-only subtree — and every
// replay runs the fold inside the store, where a crash can land on it.
func (p *plan) batch(lo, hi int) []core.Update {
	out := make([]core.Update, hi-lo)
	for i, u := range p.updates[lo:hi] {
		if put, ok := u.(*nameserver.PutSubtree); ok {
			own := *put
			u = &own
		}
		out[i] = u
	}
	return out
}

// labels is the small component pool paths are drawn from; a small pool
// makes updates collide on shared prefixes, exercising deep overwrites,
// deletes of populated subtrees and moves across them.
var labels = []string{"net", "usr", "srv", "db", "a", "b", "c", "d"}

func randPath(rng *rand.Rand) []string {
	depth := 1 + rng.Intn(3)
	p := make([]string, depth)
	for i := range p {
		p[i] = labels[rng.Intn(len(labels))]
	}
	return p
}

// existingPaths lists every non-root node currently in the oracle, in
// depth-first sorted order (deterministic for a given tree).
func existingPaths(t *nameserver.Tree) [][]string {
	var out [][]string
	var walk func(n *nameserver.Node, path []string)
	walk = func(n *nameserver.Node, path []string) {
		if len(path) > 0 {
			out = append(out, append([]string(nil), path...))
		}
		for _, a := range n.AllArcs() {
			walk(a.Node(), append(path, a.Label()))
		}
	}
	walk(t.Root, nil)
	return out
}

// genUpdate emits the i-th update: mostly single-value sets, plus multi-arc
// subtree installs (the atomicity probe: several names change in one
// transaction), deletes of whole populated subtrees, and renames.
func genUpdate(rng *rand.Rand, oracle *nameserver.Tree, i int) core.Update {
	roll := rng.Intn(100)
	switch {
	case roll < 55:
		return &nameserver.SetValue{Path: randPath(rng), Value: fmt.Sprintf("v%d-%d", i, rng.Intn(1000))}
	case roll < 70:
		return &nameserver.PutSubtree{Path: randPath(rng), Subtree: randSubtree(rng, i)}
	case roll < 85:
		ex := existingPaths(oracle)
		if len(ex) == 0 {
			return &nameserver.SetValue{Path: randPath(rng), Value: fmt.Sprintf("v%d", i)}
		}
		return &nameserver.DeleteSubtree{Path: ex[rng.Intn(len(ex))]}
	default:
		ex := existingPaths(oracle)
		for try := 0; try < 8 && len(ex) > 0; try++ {
			from := ex[rng.Intn(len(ex))]
			to := randPath(rng)
			if oracle.FindNode(to) == nil && !pathPrefix(from, to) && !pathPrefix(to, from) {
				return &nameserver.Move{From: from, To: to}
			}
		}
		return &nameserver.SetValue{Path: randPath(rng), Value: fmt.Sprintf("v%d", i)}
	}
}

// randSubtree builds a small multi-arc subtree: a valued root with several
// valued children, so one PutSubtree changes several names atomically. It is
// spelled with the input-only Children map, which the update must fold into
// sorted arcs before it is logged.
func randSubtree(rng *rand.Rand, i int) *nameserver.Node {
	n := &nameserver.Node{Value: fmt.Sprintf("sub%d", i), HasValue: true, Children: map[string]*nameserver.Node{}}
	for j, arcs := 0, 2+rng.Intn(3); j < arcs; j++ {
		n.Children[labels[rng.Intn(len(labels))]] = &nameserver.Node{
			Value: fmt.Sprintf("sub%d-%d", i, j), HasValue: true,
		}
	}
	return n
}

func pathPrefix(prefix, path []string) bool {
	return len(path) >= len(prefix) && slices.Equal(path[:len(prefix)], prefix)
}

// fingerprintTree hashes a canonical enumeration of the tree: every node in
// depth-first sorted order with its path, value presence and value. The
// replication stamps (Stamp, StampBy) are excluded so the same oracle
// fingerprints serve both the bare store and the replicated store.
func fingerprintTree(t *nameserver.Tree) uint64 {
	h := fnv.New64a()
	var walk func(n *nameserver.Node, path []string)
	walk = func(n *nameserver.Node, path []string) {
		for _, p := range path {
			h.Write([]byte(p))
			h.Write([]byte{'/'})
		}
		if n.HasValue {
			h.Write([]byte{'='})
			h.Write([]byte(n.Value))
		}
		h.Write([]byte{0})
		for _, a := range n.AllArcs() {
			walk(a.Node(), append(path, a.Label()))
		}
	}
	if t != nil && t.Root != nil {
		walk(t.Root, nil)
	}
	return h.Sum64()
}

// recorder captures, during the reference run, the op-index window of each
// update: startOp[k] is the op count just before update k was issued,
// ackOp[k] the count right after its acknowledgement. Update k is
// acknowledged before a crash at point n exactly when ackOp[k] <= n (all
// its ops, including the commit-point sync, have indices < n).
type recorder struct {
	startOp []int64
	ackOp   []int64
}

func (r *recorder) start(op int64) { r.startOp = append(r.startOp, op) }
func (r *recorder) ack(op int64)   { r.ackOp = append(r.ackOp, op) }

// ackedAt reports how many updates had been acknowledged before a crash at
// point n.
func (r *recorder) ackedAt(n int64) int {
	return sort.Search(len(r.ackOp), func(i int) bool { return r.ackOp[i] > n })
}

// attemptedAt reports how many updates had issued at least one file-system
// operation before a crash at point n — the upper bound on what recovery
// may surface.
func (r *recorder) attemptedAt(n int64) int {
	return sort.Search(len(r.startOp), func(i int) bool { return r.startOp[i] >= n })
}
