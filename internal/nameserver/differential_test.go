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
		arcs := n.AllArcs()
		for i, a := range arcs {
			if !a.exists() || (i > 0 && arcs[i-1].Label() >= a.Label()) {
				t.Fatalf("node %q: arcs not strictly ascending and non-nil at %d (%q)", JoinPath(path), i, a.Label())
			}
			walk(a.Node(), append(path, a.Label()))
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

// The wide directory, "wide", takes names drawn from wideLabels: enough to
// spread it over several blocks. Most steps of a run also work it, growing
// it past two blocks and then shrinking it below half of one, over and over.
const wideLabels = 4 * blockSize

func wideLabel(rng *rand.Rand) string { return fmt.Sprintf("w%03d", rng.Intn(wideLabels)) }

// wideName draws a name in the wide directory that the model holds, or
// that it does not.
func wideName(rng *rand.Rand, m refModel, held bool) []string {
	for i, start := 0, rng.Intn(wideLabels); i < wideLabels; i++ {
		if p := []string{"wide", fmt.Sprintf("w%03d", (start+i)%wideLabels)}; m.has(JoinPath(p)) == held {
			return p
		}
	}
	return []string{"wide", wideLabel(rng)}
}

// wideSpec draws a subtree whose root holds more than one block of arcs.
func wideSpec(rng *rand.Rand, step int) refModel {
	spec := refModel{"": {}}
	for i, n := 0, blockSize+1+rng.Intn(blockSize); i < n; i++ {
		spec[wideLabel(rng)] = refEntry{value: fmt.Sprintf("wide%d.%d", step, i), hasValue: true}
	}
	return spec
}

// flatCopy copies a subtree with every node's arcs flat and every leaf a
// node: the reference for the bytes a tree whose nodes hold blocks and
// inline leaves must pickle to.
func flatCopy(n *Node) *Node {
	if n == nil {
		return nil
	}
	c := &Node{Value: n.Value, HasValue: n.HasValue, Stamp: n.Stamp, StampBy: n.StampBy}
	if arcs := n.AllArcs(); arcs != nil {
		c.Arcs = make([]Arc, len(arcs))
		for i, a := range arcs {
			c.Arcs[i] = arcOf(a.Label(), flatCopy(a.Node()))
		}
	}
	return c
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
			n.Arcs = append(n.Arcs, arcOf(l, c))
		case 2:
			n.Arcs = append([]Arc{arcOf(l, c)}, n.Arcs...)
		}
	}
	return n
}

func scribble(n *Node) {
	n.Value, n.HasValue = "scribbled on the caller's subtree after Apply", true
	for i, a := range n.Arcs { // the update's subtree is flat
		if a.leaf() != "" {
			n.Arcs[i] = inlineArc(a.Label(), nil, &Node{Value: "scribbled", HasValue: true})
		} else {
			scribble(a.Child)
		}
	}
	for _, c := range n.Children {
		scribble(c)
	}
}

// inlinePaths returns the names at the end of tr's inline paths of at least
// one plain node, each with the labels of the name whose arc holds the path.
func inlinePaths(tr *Tree) (ends [][]string, heads []int) {
	var walk func(n *Node, path []string)
	walk = func(n *Node, path []string) {
		for _, a := range n.AllArcs() {
			end := append(path[:len(path):len(path)], a.Label())
			if a.Child != nil {
				walk(a.Child, end)
			} else if span(a) > 1 {
				heads = append(heads, len(end))
				for next, ok := a.next(); ok; next, ok = next.next() {
					end = append(end, next.Label())
				}
				ends = append(ends, end)
			}
		}
	}
	walk(tr.Root, nil)
	return ends, heads
}

// chainStep draws an update that makes or meets an inline path of tr and
// applies it to the model m. It returns the update, its kind, and the name
// whose arc must hold an inline path once it is applied, if any: a new name
// two to four labels below its deepest existing node; or, on a path tr
// holds, a Set of its own name, a Set beside one of its names or below its
// leaf, a Delete of its leaf or its head, or a Move of one of its names; or
// a Put of a chain. verify is runDifferential's.
func chainStep(rng *rand.Rand, tr *Tree, m refModel, step int, verify func(int, interface{ Verify(any) error }, bool) bool) (u interface{ Apply(any) error }, kind string, inline []string) {
	base := existingPath(rng, m)
	fresh := append(base[:min(len(base), 3):min(len(base), 3)], fmt.Sprint("c", step)) // a name no step made
	set := func(path []string) *SetValue {
		u := &SetValue{Path: path, Value: fmt.Sprint("chain", step)}
		verify(step, u, true)
		m.ensure(path)
		e := m[JoinPath(path)]
		e.value, e.hasValue = u.Value, true
		m[JoinPath(path)] = e
		return u
	}
	ends, heads := inlinePaths(tr)
	k := rng.Intn(7)
	if len(ends) == 0 {
		k = 0
	}
	var end []string
	var head int
	if k > 0 {
		i := rng.Intn(len(ends))
		end, head = ends[i], heads[i]
	}
	switch k {
	case 0:
		return set(append(fresh, refPath(rng, 1)...)), "chain-new", fresh
	case 1:
		return set(end), "chain-set", end[:head]
	case 2: // beside the head or a name below it, or below the leaf
		dir := end[:head-1+rng.Intn(len(end)-head+2)]
		return set(append(dir[:len(dir):len(dir)], fmt.Sprint("c", step))), "chain-sibling", nil
	case 3, 4:
		u, kind := &DeleteSubtree{Path: end}, "chain-delete-leaf"
		if k == 4 {
			u.Path, kind = end[:head], "chain-delete-head"
		}
		verify(step, u, true)
		m.cut(JoinPath(u.Path))
		return u, kind, nil
	case 5:
		u := &Move{From: end[:head+rng.Intn(len(end)-head+1)], To: fresh}
		from, to := JoinPath(u.From), JoinPath(u.To)
		if !verify(step, u, !under(to, from)) {
			return nil, "", nil
		}
		moved := m.cut(from)
		m.ensure(u.To[:len(u.To)-1])
		m.graft(to, moved)
		return u, "chain-move", nil
	default:
		spec, key := refModel{"": {}}, ""
		for i, n := 0, 1+rng.Intn(3); i < n; i++ {
			key = strings.Trim(key+"/"+refLabels[rng.Intn(len(refLabels))], "/")
			spec[key] = refEntry{}
		}
		spec[key] = refEntry{value: fmt.Sprint("chain", step), hasValue: true}
		u := &PutSubtree{Path: fresh, Subtree: buildSubtree(spec, "", rng.Intn(3))}
		verify(step, u, true)
		m.ensure(fresh[:len(fresh)-1])
		m.graft(JoinPath(fresh), spec)
		return u, "chain-put", fresh
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

	shrinking, fan := false, 0 // the wide directory's phase, and its arcs after the last step
	for step := 0; step < steps; step++ {
		// A step is one drawn update and, three times in four, one more that
		// works the wide directory: a Set or a Delete, or a Move in or out.
		for _, wide := range []bool{false, true} {
			if wide && rng.Intn(4) == 0 {
				break
			}
			var applied interface{ Apply(any) error }
			r := rng.Intn(100)
			// Past halfway, a growing directory that has not been deleted
			// whole is, once it holds three blocks.
			dropDir := wide && step >= steps/2 && counts["delete-wide-dir"] == 0 && fan > 2*blockSize
			if wide {
				r = 0
				if shrinking || dropDir {
					r = 70
				}
				if !dropDir && rng.Intn(4) == 0 {
					r = 90
				}
			}
			switch {
			case r < 30:
				u := &SetValue{Path: refPath(rng, 0), Value: fmt.Sprintf("set%d", step)}
				if wide {
					u.Path = wideName(rng, model, false)
				}
				verify(step, u, true)
				applied = u
				model.ensure(u.Path)
				e := model[JoinPath(u.Path)]
				e.value, e.hasValue = u.Value, true
				model[JoinPath(u.Path)] = e
				counts["set"]++
			case r < 45: // the replica package's stamped write; half of them at a stamped name, as old as its write or older
				path := refPath(rng, 0)
				e := refEntry{fmt.Sprintf("stamped%d", step), true, 1 + uint64(rng.Intn(step+1)), "origin" + refLabels[rng.Intn(3)]}
				var stamped []string
				for _, k := range model.keys() {
					if model[k].stamp > 0 {
						stamped = append(stamped, k)
					}
				}
				if len(stamped) > 0 && rng.Intn(2) == 0 {
					path, _ = SplitPath(stamped[rng.Intn(len(stamped))])
					e.stamp = max(1, model[JoinPath(path)].stamp-uint64(rng.Intn(2))) // a tie goes by origin
				}
				held, ok := model[JoinPath(path)]
				wins := !ok || (!held.hasValue && held.stamp == 0) || e.stamp > held.stamp || (e.stamp == held.stamp && e.stampBy >= held.stampBy)
				if won := tree.SetStamped(path, e.value, e.stamp, e.stampBy); won != wins {
					t.Fatalf("seed %d step %d: SetStamped(%v, %+v) over %+v won = %v, model says %v", seed, step, path, e, held, won, wins)
				}
				if wins {
					model.ensure(path)
					model[JoinPath(path)] = e
					counts["stamped"]++
				} else {
					counts["stamped-lost"]++
				}
			case r < 65:
				spec, form := randSpec(rng, step), rng.Intn(3)
				path := refPath(rng, 0)
				if rng.Intn(8) == 0 {
					spec, path = wideSpec(rng, step), []string{"wide"}
					counts["put-wide"]++
				}
				u := &PutSubtree{Path: path, Subtree: buildSubtree(spec, "", form)}
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
				if wide {
					u.Path = wideName(rng, model, true)
					if dropDir || rng.Intn(40) == 0 {
						u.Path = []string{"wide"}
					}
				}
				if verify(step, u, len(u.Path) > 0 && model.has(JoinPath(u.Path))) {
					applied = u
					if ls, _ := model.list(JoinPath(u.Path)); len(ls) > blockSize {
						counts["delete-wide-dir"]++
					}
					model.cut(JoinPath(u.Path))
					counts["delete"]++
				}
			default:
				u := &Move{From: refPath(rng, 0), To: refPath(rng, 0)}
				if rng.Intn(3) > 0 {
					u.From = existingPath(rng, model)
				}
				if wide && shrinking {
					u.From = wideName(rng, model, true)
				} else if wide {
					u.To = wideName(rng, model, false)
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
		}
		// One step in two also makes or meets an inline path.
		if rng.Intn(2) == 0 {
			if u, kind, inline := chainStep(rng, tree, model, step, verify); u != nil {
				if err := u.Apply(tree); err != nil {
					t.Fatalf("seed %d step %d: Apply %s %+v: %v", seed, step, kind, u, err)
				}
				if a := tree.at(inline); inline != nil && span(a) < 2 {
					t.Fatalf("seed %d step %d: %s %+v left %q holding %+v, not an inline path", seed, step, kind, u, JoinPath(inline), a)
				}
				counts[kind]++
			}
		}
		// 1. The live tree is the model, node for node, and in invariant form.
		now := model.dump()
		if got := dumpTree(t, tree); got != now {
			t.Fatalf("seed %d step %d: live tree diverged from the model:\ntree:\n%s\nmodel:\n%s", seed, step, got, now)
		}
		ls, _ := tree.List([]string{"wide"}) // count the block boundaries the wide directory crosses
		switch {
		case len(ls)/blockSize > fan/blockSize:
			counts["grow-past-block"]++
		case len(ls)/blockSize < fan/blockSize:
			counts["shrink-past-block"]++
		}
		if fan = len(ls); fan > 2*blockSize { // three blocks at least
			counts["several-blocks"]++
			shrinking = shrinking || fan > 2*blockSize+blockSize/4
		} else if fan < blockSize/2 {
			shrinking = false
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
		if flat := mustMarshal(&Tree{Root: flatCopy(tree.Root)}); !bytes.Equal(flat, raw) {
			t.Fatalf("seed %d step %d: tree does not pickle to the bytes of its flat copy", seed, step)
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
	for kind, least := range map[string]int{"set": steps / 100, "stamped": steps / 100, "stamped-lost": steps / 100, "put-form0": steps / 100,
		"put-form1": steps / 100, "put-form2": steps / 100, "delete": steps / 100, "move": steps / 100,
		"put-wide": 2, "delete-wide-dir": 1, "grow-past-block": 2, "shrink-past-block": 2, "several-blocks": 2,
		"chain-new": steps / 100, "chain-set": steps / 100, "chain-sibling": steps / 100, "chain-delete-leaf": steps / 100,
		"chain-delete-head": steps / 100, "chain-move": steps / 100, "chain-put": steps / 100} {
		if counts[kind] < least {
			t.Fatalf("seed %d: degenerate run, %q applied %d times: %v", seed, kind, counts[kind], counts)
		}
	}
	if len(views) < steps/125 {
		t.Fatalf("seed %d: degenerate run, %d views", seed, len(views))
	}
	t.Logf("seed %d: %d steps, %v, %d views, final tree %d nodes", seed, steps, counts, len(views), len(model))
}

// TestTreeDifferential is the admission test for the tree's representation:
// 5 000 seeded steps against the flat model (a quarter of that, in three
// longer runs, under -short or the race detector, which has nothing to find
// in one goroutine).
func TestTreeDifferential(t *testing.T) {
	steps, seeds := 1000, []int64{1, 2, 3, 4, 5}
	if testing.Short() || raceEnabled {
		steps, seeds = 400, seeds[:3]
	}
	for _, seed := range seeds {
		runDifferential(t, seed, steps)
	}
}

// arcOf returns label's arc to child, which it holds as a Node whatever its
// shape: a tree spelled with a Node per name.
func arcOf(label string, child *Node) Arc { return Arc{path: pathOf(label, ""), Child: child} }
