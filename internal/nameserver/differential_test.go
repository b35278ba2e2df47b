package nameserver

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"smalldb/internal/pickle"
)

// The tree-level differential oracle. The production Tree (sorted arc
// slices, epoch-stamped copy-on-write, pointer-skipping deltas, map-coded
// pickles) and a deliberately naive model — one flat map from "/"-joined
// path to everything a node carries, scanned end to end for every question —
// are driven through the same seeded operations, and after every step the
// two must answer alike. The model shares no code with the tree: it never
// sees a Node, only the flat spec a subtree was built from.

// refEntry is everything one node carries besides its arcs.
type refEntry struct {
	value    string
	hasValue bool
	stamp    uint64
	stampBy  string
}

// refModel maps "/"-joined path to entry; the root is "" and always there.
type refModel map[string]refEntry

func under(key, dir string) bool {
	return key == dir || dir == "" || strings.HasPrefix(key, dir+"/")
}

func (m refModel) ensure(parts []string) {
	for i := 0; i <= len(parts); i++ {
		if k := JoinPath(parts[:i]); !m.has(k) {
			m[k] = refEntry{}
		}
	}
}

func (m refModel) has(key string) bool { _, ok := m[key]; return ok }

// cut removes the subtree at key and returns it re-rooted at "".
func (m refModel) cut(key string) refModel {
	out := refModel{}
	for k, e := range m {
		if under(k, key) {
			out[strings.TrimPrefix(strings.TrimPrefix(k, key), "/")] = e
			delete(m, k)
		}
	}
	return out
}

// graft installs sub (rooted at "") at key.
func (m refModel) graft(key string, sub refModel) {
	for k, e := range sub {
		m[strings.Trim(key+"/"+k, "/")] = e
	}
}

func (m refModel) keys() []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m refModel) lookup(key string) (string, error) {
	e, ok := m[key]
	switch {
	case !ok:
		return "", ErrNotFound
	case !e.hasValue:
		return "", ErrNoValue
	}
	return e.value, nil
}

func (m refModel) list(key string) ([]string, error) {
	if !m.has(key) {
		return nil, ErrNotFound
	}
	out := []string{}
	for _, k := range m.keys() {
		if rest := strings.TrimPrefix(strings.TrimPrefix(k, key), "/"); k != key && under(k, key) && !strings.Contains(rest, "/") {
			out = append(out, rest)
		}
	}
	return out, nil
}

// enumerate returns "name=value" for every valued node at or below key, in
// the depth-first label-sorted order Tree.Enumerate promises.
func (m refModel) enumerate(key string) ([]string, error) {
	if !m.has(key) {
		return nil, ErrNotFound
	}
	var at [][]string
	for k, e := range m {
		if under(k, key) && e.hasValue {
			parts, _ := SplitPath(k)
			at = append(at, parts)
		}
	}
	sort.Slice(at, func(i, j int) bool { return slicesLess(at[i], at[j]) })
	out := []string{}
	for _, parts := range at {
		out = append(out, JoinPath(parts)+"="+m[JoinPath(parts)].value)
	}
	return out, nil
}

// slicesLess orders paths component by component, a prefix first: depth-
// first order. (Comparing the joined strings would not be: "a/b" sorts after
// "a-" as a string, before it as a path.)
func slicesLess(a, b []string) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// dump renders the model as one line per node, in depth-first label-sorted
// order: the form dumpTree renders a tree in.
func (m refModel) dump() string {
	var at [][]string
	for k := range m {
		parts, _ := SplitPath(k)
		at = append(at, parts)
	}
	sort.Slice(at, func(i, j int) bool { return slicesLess(at[i], at[j]) })
	var sb strings.Builder
	for _, parts := range at {
		dumpLine(&sb, parts, m[JoinPath(parts)])
	}
	return sb.String()
}

// dumpLine writes one node. (Plain appends: the views are re-dumped after
// every step, and fmt would be most of the test's run time.)
func dumpLine(sb *strings.Builder, path []string, e refEntry) {
	for _, p := range path {
		sb.WriteString(p)
		sb.WriteByte('/')
	}
	sb.WriteString(" = ")
	sb.WriteString(e.value)
	if e.hasValue {
		sb.WriteString(" (bound)")
	}
	sb.WriteString(" @")
	sb.WriteString(strconv.FormatUint(e.stamp, 10))
	sb.WriteString(e.stampBy)
	sb.WriteByte('\n')
}

// dumpTree renders every node of a tree, checking on the way the
// representation invariant: arcs strictly ascending, no arc to nil, and the
// input-only Children nil on every node a Tree can reach.
func dumpTree(t *testing.T, tr *Tree) string {
	t.Helper()
	var sb strings.Builder
	var walk func(n *Node, path []string)
	walk = func(n *Node, path []string) {
		if n.Children != nil {
			t.Fatalf("node %q reachable from a tree holds the input-only Children map", JoinPath(path))
		}
		dumpLine(&sb, path, refEntry{n.Value, n.HasValue, n.Stamp, n.StampBy})
		for i, a := range n.Arcs {
			if a.Child == nil || (i > 0 && n.Arcs[i-1].Label >= a.Label) {
				t.Fatalf("node %q: arcs not strictly ascending and non-nil at %d (%q)", JoinPath(path), i, a.Label)
			}
			walk(a.Child, append(path, a.Label))
		}
	}
	walk(tr.Root, nil)
	return sb.String()
}

func enumerateTree(tr *Tree, parts []string) ([]string, error) {
	out := []string{}
	err := tr.Enumerate(parts, func(name, value string) error {
		out = append(out, name+"="+value)
		return nil
	})
	return out, err
}

// sameAnswer compares a production answer with the model's: the same error
// class, and then the same value.
func sameAnswer(t *testing.T, what string, got any, gotErr error, want any, wantErr error) {
	t.Helper()
	if wantErr != nil {
		if !errors.Is(gotErr, wantErr) {
			t.Fatalf("%s: err = %v, model says %v", what, gotErr, wantErr)
		}
		return
	}
	if gotErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n tree  %v (err %v)\n model %v", what, got, gotErr, want)
	}
}

var refLabels = []string{"a", "b", "c", "d", "a-"} // "a-" sorts between "a" and "a/…" as a string

func refPath(rng *rand.Rand, minDepth int) []string {
	p := make([]string, minDepth+rng.Intn(4-minDepth))
	for i := range p {
		p[i] = refLabels[rng.Intn(len(refLabels))]
	}
	return p
}

// existingPath draws a path the model holds (possibly the root).
func existingPath(rng *rand.Rand, m refModel) []string {
	keys := m.keys()
	parts, _ := SplitPath(keys[rng.Intn(len(keys))])
	return parts
}

// randSpec draws a small subtree as a flat, prefix-closed spec rooted at "".
func randSpec(rng *rand.Rand, step int) refModel {
	spec := refModel{}
	for i, n := 0, rng.Intn(6); i <= n; i++ {
		parts := refPath(rng, 0)
		parts = parts[:min(len(parts), 2)]
		spec.ensure(parts)
		e := refEntry{value: fmt.Sprintf("put%d.%d", step, i), hasValue: rng.Intn(4) > 0}
		if rng.Intn(3) == 0 {
			e.stamp, e.stampBy = uint64(step), "origin"+refLabels[rng.Intn(3)]
		}
		spec[JoinPath(parts)] = e
	}
	return spec
}

// buildSubtree turns a spec into PutSubtree input in one of three spellings:
// 0 the input-only Children maps, 1 canonical ascending arcs, 2 arcs in
// descending order (which Verify must put right before the update is
// logged). Leaves get no table at all in any spelling.
func buildSubtree(spec refModel, key string, form int) *Node {
	e := spec[key]
	n := &Node{Value: e.value, HasValue: e.hasValue, Stamp: e.stamp, StampBy: e.stampBy}
	labels, _ := spec.list(key)
	for _, l := range labels {
		c := buildSubtree(spec, strings.Trim(key+"/"+l, "/"), form)
		switch form {
		case 0:
			if n.Children == nil {
				n.Children = map[string]*Node{}
			}
			n.Children[l] = c
		case 1:
			n.Arcs = append(n.Arcs, Arc{l, c})
		case 2:
			n.Arcs = append([]Arc{{l, c}}, n.Arcs...)
		}
	}
	return n
}

func scribble(n *Node) {
	n.Value, n.HasValue = "scribbled on the caller's subtree after Apply", true
	for _, a := range n.Arcs {
		scribble(a.Child)
	}
	for _, c := range n.Children {
		scribble(c)
	}
}

// refView is a published snapshot, the model's dump when it was taken, and
// the snapshot's pickle.
type refView struct {
	step  int
	tree  *Tree
	dump  string
	image []byte
}

func runDifferential(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	tree, model := NewTree(), refModel{"": {}}
	var views []refView
	counts := map[string]int{}

	// verify runs u.Verify and requires it to agree with the model's
	// verdict; it reports whether the update goes ahead.
	verify := func(step int, u interface{ Verify(any) error }, ok bool) bool {
		t.Helper()
		if err := u.Verify(tree); (err == nil) != ok {
			t.Fatalf("seed %d step %d: %T%+v: Verify = %v, model says ok = %v", seed, step, u, u, err, ok)
		}
		return ok
	}
	roundTrip := func(step int, v any, into any) []byte {
		t.Helper()
		raw, err := pickle.Marshal(v)
		if err == nil {
			err = pickle.Unmarshal(raw, into)
		}
		if err != nil {
			t.Fatalf("seed %d step %d: pickle round trip of %T: %v", seed, step, v, err)
		}
		return raw
	}

	for step := 0; step < steps; step++ {
		var applied interface{ Apply(any) error }
		switch r := rng.Intn(100); {
		case r < 30:
			u := &SetValue{Path: refPath(rng, 0), Value: fmt.Sprintf("set%d", step)}
			verify(step, u, true)
			applied = u
			model.ensure(u.Path)
			e := model[JoinPath(u.Path)]
			e.value, e.hasValue = u.Value, true
			model[JoinPath(u.Path)] = e
			counts["set"]++
		case r < 45: // the replica package's stamped write
			path := refPath(rng, 0)
			e := refEntry{fmt.Sprintf("stamped%d", step), rng.Intn(5) > 0, uint64(step), "origin" + refLabels[rng.Intn(3)]}
			n := tree.EnsureNode(path)
			n.Value, n.HasValue, n.Stamp, n.StampBy = e.value, e.hasValue, e.stamp, e.stampBy
			model.ensure(path)
			model[JoinPath(path)] = e
			counts["ensure"]++
		case r < 65:
			spec, form := randSpec(rng, step), rng.Intn(3)
			u := &PutSubtree{Path: refPath(rng, 0), Subtree: buildSubtree(spec, "", form)}
			given := u.Subtree
			if !verify(step, u, len(u.Path) > 0) {
				break
			}
			// Verify replaces exactly the spellings that are not what the
			// tree holds: any map, or arcs some node has out of order.
			want := form == 0 && len(spec) > 1
			for k := range spec {
				if ls, _ := spec.list(k); form == 2 && len(ls) > 1 {
					want = true
				}
			}
			if folded := u.Subtree != given; folded != want {
				t.Fatalf("seed %d step %d: form %d subtree %v: Verify folded = %v", seed, step, form, spec, folded)
			}
			applied = u
			model.ensure(u.Path[:len(u.Path)-1])
			model.cut(JoinPath(u.Path))
			model.graft(JoinPath(u.Path), spec)
			counts[fmt.Sprintf("put-form%d", form)]++
		case r < 82:
			u := &DeleteSubtree{Path: refPath(rng, 0)}
			if rng.Intn(3) > 0 {
				u.Path = existingPath(rng, model)
			}
			if verify(step, u, len(u.Path) > 0 && model.has(JoinPath(u.Path))) {
				applied = u
				model.cut(JoinPath(u.Path))
				counts["delete"]++
			}
		default:
			u := &Move{From: refPath(rng, 0), To: refPath(rng, 0)}
			if rng.Intn(3) > 0 {
				u.From = existingPath(rng, model)
			}
			from, to := JoinPath(u.From), JoinPath(u.To)
			ok := len(u.From) > 0 && len(u.To) > 0 && model.has(from) && !model.has(to) && !under(to, from)
			if verify(step, u, ok) {
				applied = u
				moved := model.cut(from)
				model.ensure(u.To[:len(u.To)-1])
				model.graft(to, moved)
				counts["move"]++
			}
		}
		if applied != nil {
			if err := applied.Apply(tree); err != nil {
				t.Fatalf("seed %d step %d: Apply %T: %v", seed, step, applied, err)
			}
			if put, ok := applied.(*PutSubtree); ok {
				scribble(put.Subtree) // the tree holds a copy, never the update's nodes
			}
		}
		// 1. The live tree is the model, node for node, and in invariant form.
		now := model.dump()
		if got := dumpTree(t, tree); got != now {
			t.Fatalf("seed %d step %d: live tree diverged from the model:\ntree:\n%s\nmodel:\n%s", seed, step, got, now)
		}
		if rng.Intn(100) < 2 {
			v := refView{step: step, tree: tree.SnapshotView().(*Tree), dump: now}
			v.image = roundTrip(step, v.tree, new(Tree))
			views = append(views, v)
		}
		// 2. The enquiries answer alike, errors included, at the root and at
		// a drawn path that may or may not exist.
		for _, parts := range [][]string{nil, refPath(rng, 0), existingPath(rng, model)} {
			key := JoinPath(parts)
			gotE, errE := enumerateTree(tree, parts)
			wantE, wantErrE := model.enumerate(key)
			sameAnswer(t, fmt.Sprintf("seed %d step %d: Enumerate(%q)", seed, step, key), gotE, errE, wantE, wantErrE)
			gotL, errL := tree.List(parts)
			wantL, wantErrL := model.list(key)
			sameAnswer(t, fmt.Sprintf("seed %d step %d: List(%q)", seed, step, key), gotL, errL, wantL, wantErrL)
			gotV, errV := tree.Lookup(parts)
			wantV, wantErrV := model.lookup(key)
			sameAnswer(t, fmt.Sprintf("seed %d step %d: Lookup(%q)", seed, step, key), gotV, errV, wantV, wantErrV)
		}
		// 3. Every view ever published still holds what the model held when
		// it was captured: no later write reached a node, or the spare
		// capacity of an arc array, that a snapshot shares.
		for _, v := range views {
			if got := dumpTree(t, v.tree); got != v.dump {
				t.Fatalf("seed %d step %d: view published at step %d drifted:\nview:\n%s\nmodel then:\n%s", seed, step, v.step, got, v.dump)
			}
		}
		// 4. The tree pickles, loads and pickles again to the same bytes.
		var back Tree
		raw := roundTrip(step, tree, &back)
		if again, err := pickle.Marshal(&back); err != nil || !bytes.Equal(again, raw) {
			t.Fatalf("seed %d step %d: tree does not round-trip to identical bytes (err %v)", seed, step, err)
		}
		// 5. From a loaded copy of any earlier view, the delta since that
		// view — itself through the wire — rebuilds the current tree.
		if len(views) > 0 {
			v := views[rng.Intn(len(views))]
			var base Tree
			if err := pickle.Unmarshal(v.image, &base); err != nil {
				t.Fatalf("seed %d step %d: loading view %d: %v", seed, step, v.step, err)
			}
			d, err := tree.DeltaSince(v.tree)
			if err != nil {
				t.Fatalf("seed %d step %d: DeltaSince(view %d): %v", seed, step, v.step, err)
			}
			var wire TreeDelta
			roundTrip(step, d, &wire)
			if err := base.ApplyDelta(&wire); err != nil {
				t.Fatalf("seed %d step %d: ApplyDelta(view %d): %v", seed, step, v.step, err)
			}
			if got := dumpTree(t, &base); got != now {
				t.Fatalf("seed %d step %d: view %d + delta != current tree:\ngot:\n%s\nmodel:\n%s", seed, step, v.step, got, now)
			}
		}
	}
	for _, kind := range []string{"set", "ensure", "put-form0", "put-form1", "put-form2", "delete", "move"} {
		if counts[kind] < steps/100 {
			t.Fatalf("seed %d: degenerate run, %q applied %d times: %v", seed, kind, counts[kind], counts)
		}
	}
	if len(views) < steps/125 {
		t.Fatalf("seed %d: degenerate run, %d views", seed, len(views))
	}
	t.Logf("seed %d: %d steps, %v, %d views, final tree %d nodes", seed, steps, counts, len(views), len(model))
}

// TestTreeDifferential is the admission test for the tree's representation:
// 5 000 seeded operations against the flat model (a quarter of that under
// -short or the race detector, which has nothing to find in one goroutine).
func TestTreeDifferential(t *testing.T) {
	steps := 1000
	if testing.Short() || raceEnabled {
		steps = 250
	}
	for _, seed := range []int64{1, 2, 3, 4, 5} {
		runDifferential(t, seed, steps)
	}
}
