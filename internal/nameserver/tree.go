// Package nameserver implements the paper's running example: "a general
// purpose name-to-value mapping, where the names are strings and the values
// are trees whose arcs are labelled by strings" (§3), built directly on the
// core store. Where the paper keeps "a tree of hash tables... indexed by
// strings, [delivering] values that are further hash tables", a node's table
// here is a label-sorted slice of arcs searched by bisection: a fraction of a
// hash table's memory, and it still pickles as the map it replaced. A wide
// directory keeps its arcs in blocks behind a short index, so a write copies
// one block and the index, not every arc.
//
// Names are slash-separated paths ("net/hosts/gva"). Every node may carry a
// string value and arbitrarily many labelled children, so the same tree
// naturally holds user-account records, network configuration and file
// directories — the §1 examples. Enquiry operations (Lookup, List,
// Enumerate) are pure virtual-memory reads; update operations
// (SetValue, DeleteSubtree, PutSubtree, Move) are single-shot transactions,
// each a registered update type that pickles into one log entry.
package nameserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"smalldb/internal/core"
	"smalldb/internal/pickle"
)

// Tree is the database root: the name server's entire mapping.
//
// Updates are copy-on-write with respect to published snapshots: every
// mutation rebuilds the nodes along its path (sharing all untouched
// subtrees) instead of editing nodes in place, so a view captured by
// SnapshotView is immutable forever and the core store can serve
// enquiries from it without any lock. The epoch counter makes the copying
// lazy: a node born after the last snapshot is private to the writer and
// may be edited in place, so recovery replay — which publishes nothing
// until it finishes — mutates in place exactly as before.
type Tree struct {
	Root *Node

	// epoch counts published snapshots; nodes born in the current epoch
	// are not yet visible to any snapshot. Unexported: never pickled.
	epoch uint64
}

// Node is one name in the tree: an optional value plus string-labelled
// arcs to children, strictly ascending by label (nil for a leaf that never
// had any) — the paper's hash table delivering further hash tables. Once
// a write finds more than blockSize, they move to blocks; AllArcs reads both.
// A leaf with a value and nothing else is usually no Node at all: its
// parent's arc holds the value, and the labels of any single-child chain
// leading to it (see Arc).
//
// Stamp and StampBy are replication metadata: the Lamport time and origin
// of the write that set Value, used by the replica package's last-writer-
// wins conflict resolution (the role timestamps play in the global name
// service the paper's system fed into). They stay zero for unreplicated
// databases.
type Node struct {
	Value    string
	HasValue bool
	Arcs     []Arc `pickle:"Children"` // on disk and on the wire, the map it was
	Stamp    uint64
	StampBy  string

	// Children is an input-only way to spell Arcs in a subtree handed to
	// PutSubtree: folded into sorted Arcs before the update is logged, and
	// nil on every node a Tree can reach.
	Children map[string]*Node `pickle:"-"`

	// born is the tree epoch this node was created in; a node born before
	// the current epoch is reachable from a published snapshot and must be
	// copied, not edited. Unexported: never pickled, zero after decode.
	born uint64

	// blocks, once set, holds the arcs instead of Arcs, which stays empty:
	// label-ordered, none empty unless it is the only one, behind an index
	// that is the node's own. A block is never written once built, so
	// indexes share them.
	blocks *[][]Arc
}

// blockSize bounds a block, and so what a write copies: 1 280 bytes.
const blockSize = 32

// Arc is one labelled edge. Being a pickle.MapPair, a []Arc pickles as the
// string-keyed map of nodes it replaced, and loads from one without building it.
//
// An arc to a bare path holds the path in leaf, with Child nil, and no node
// on it is a Node of its own: radix-tree path compression. A bare path is
// any number of plain nodes — no value, no stamps, one arc — leading to a
// bare leaf: a value neither empty nor led by a byte below 2, perhaps
// stamps, and nothing else. An arc to an unstamped bare leaf holds its
// value; to a stamped one, the byte 1, the uvarint Stamp, the uvarint
// length of StampBy, StampBy and the value; to a plain node, a NUL byte, the
// uvarint length of the node's one label, the label, and that arc's leaf:
// host → addr → "v" is an arc labelled host holding "\x00\x04addrv", and
// with addr stamped 7 by "a", "\x00\x04addr\x01\x07\x01av". It pickles as
// the nodes it stands for (pickle.MapPairInline), and loads back into its
// arc. An arc with neither Child nor leaf is an arc to nil, which only a
// foreign image holds, and which enquiries take for no name.
type Arc struct {
	Label string
	Child *Node

	leaf string // an inline path: a bare leaf, or a plain node's one arc
}

// stampMark leads the leaf of an arc to a stamped bare leaf.
const stampMark = 1

// PickleMapPair implements pickle.MapPair.
func (Arc) PickleMapPair() {}

// PickleBox implements pickle.MapPairInline: an inline path pickles as its
// first node, whose one arc pickles as the rest.
func (a *Arc) PickleBox(box any) bool {
	if a.leaf == "" {
		return false
	}
	a.unbox(box.(*Node))
	return true
}

// PickleUnbox implements pickle.MapPairInline: a bare path loads into its
// arc. Its nodes load deepest first, so a chain folds one node at a time.
func (a *Arc) PickleUnbox(box any) bool {
	a.leaf = box.(*Node).inline()
	return a.leaf != ""
}

// Node returns the node a leads to: Child, or a copy of the first node of
// the path a holds inline, which the tree does not see written, or nil.
func (a Arc) Node() *Node {
	if a.leaf == "" {
		return a.Child
	}
	n := &Node{}
	a.unbox(n)
	return n
}

// unbox makes n, which must be new or a pickle box that only unbox has
// written, the first node of the path a holds inline, reusing n's arc array.
func (a Arc) unbox(n *Node) {
	if label, rest, ok := pathNext(a.leaf); ok {
		n.Value, n.HasValue, n.Arcs = "", false, append(n.Arcs[:0], Arc{Label: label, leaf: rest})
		n.Stamp, n.StampBy = 0, ""
	} else {
		n.HasValue, n.Arcs = true, nil
		n.Value, n.Stamp, n.StampBy = bareLeaf(a.leaf)
	}
}

// bareLeaf returns the value and stamps of the bare leaf an arc holds.
func bareLeaf(leaf string) (value string, stamp uint64, by string) {
	if leaf[0] != stampMark {
		return leaf, 0, ""
	}
	stamp, i := uvarint(leaf, 1)
	n, i := uvarint(leaf, i)
	return leaf[i+int(n):], stamp, leaf[i : i+int(n)]
}

// uvarint decodes the uvarint at s[i:], which the tree wrote, and returns
// it and the index past it.
func uvarint(s string, i int) (v uint64, next int) {
	for shift := 0; ; shift += 7 {
		b := s[i]
		i++
		if v |= uint64(b&0x7f) << shift; b < 0x80 {
			return v, i
		}
	}
}

// step returns the arc labelled label out of the name a leads to, or no arc.
func (a Arc) step(label string) Arc {
	if a.Child != nil {
		return a.Child.arc(label)
	}
	if l, rest, ok := pathNext(a.leaf); ok && l == label {
		return Arc{Label: l, leaf: rest}
	}
	return Arc{}
}

// exists reports whether a leads to a name: an arc to nil does not.
func (a Arc) exists() bool { return a.Child != nil || a.leaf != "" }

// pathNext splits the leaf of an arc to a plain node into the label of that
// node's one arc and the arc's leaf; ok is false for a bare leaf.
func pathNext(leaf string) (label, rest string, ok bool) {
	if leaf == "" || leaf[0] != 0 {
		return "", "", false
	}
	n, i := uvarint(leaf, 1)
	j := i + int(n)
	return leaf[i:j], leaf[j:], true
}

// fold returns the leaf of an arc to a plain node whose one arc, labelled
// label, holds leaf.
func fold(label, leaf string) string {
	var n [binary.MaxVarintLen64]byte
	return "\x00" + string(binary.AppendUvarint(n[:0], uint64(len(label)))) + label + leaf
}

// leafOf returns the leaf of an arc holding the path of plain nodes through
// labels to the bare leaf n, in one allocation: none for an unstamped leaf
// at the arc itself, which holds n's value.
func leafOf(labels []string, n *Node) string {
	if len(labels) == 0 && n.plain() {
		return n.Value
	}
	var buf [128]byte
	b := buf[:0]
	for _, l := range labels {
		b = append(binary.AppendUvarint(append(b, 0), uint64(len(l))), l...)
	}
	if !n.plain() {
		b = binary.AppendUvarint(binary.AppendUvarint(append(b, stampMark), n.Stamp), uint64(len(n.StampBy)))
		b = append(b, n.StampBy...)
	}
	return string(append(b, n.Value...))
}

// span reports the names an inline path holds: one per label, the arc's
// own included; none for no path.
func span(leaf string) (names int) {
	for ; leaf != ""; names++ {
		_, leaf, _ = pathNext(leaf)
	}
	return names
}

// bare reports whether n is a bare leaf.
func (n *Node) bare() bool {
	return n.HasValue && n.Value != "" && n.Value[0] > stampMark && n.Arcs == nil && n.blocks == nil && n.Children == nil
}

// plain reports whether n has neither stamps nor blocks nor the input-only
// Children, which no plain node on an inline path has.
func (n *Node) plain() bool {
	return n.blocks == nil && n.Children == nil && n.Stamp == 0 && n.StampBy == ""
}

// inline returns the leaf of an arc holding n inline, or "" if n must stay
// a Node: n is neither a bare leaf nor a plain node whose one arc is inline.
func (n *Node) inline() string {
	switch {
	case n.bare():
		return leafOf(nil, n)
	case len(n.Arcs) == 1 && n.Arcs[0].leaf != "" && !n.HasValue && n.Value == "" && n.plain():
		return fold(n.Arcs[0].Label, n.Arcs[0].leaf)
	}
	return ""
}

// arcTo returns label's arc to n, which holds n inline when it may.
func arcTo(label string, n *Node) Arc {
	if n != nil {
		if leaf := n.inline(); leaf != "" {
			return Arc{Label: label, leaf: leaf}
		}
	}
	return Arc{Label: label, Child: n}
}

// PicklePairs implements pickle.MapPairSource: a blocked node's arcs pickle
// as the one map that Arcs would spell if it held them.
func (n *Node) PicklePairs() any {
	if n.blocks == nil {
		return nil
	}
	return n.AllArcs()
}

// blockList returns n's arcs as label-ordered blocks: Arcs is a flat node's one.
func (n *Node) blockList() [][]Arc {
	if n.blocks != nil {
		return *n.blocks
	}
	return [][]Arc{n.Arcs}
}

// AllArcs returns n's arcs in label order: Arcs itself while n is flat,
// else a copy gathered from its blocks. The caller must not modify them.
func (n *Node) AllArcs() []Arc {
	if n.blocks == nil {
		return n.Arcs
	}
	all := make([]Arc, 0, len(*n.blocks)*blockSize)
	for _, b := range *n.blocks {
		all = append(all, b...)
	}
	return all
}

// locate finds label's arc in n: the block j that holds it or would, its
// place i there, and whether it is there.
func (n *Node) locate(label string) (b []Arc, j, i int, ok bool) {
	b = n.Arcs
	if n.blocks != nil {
		bs := *n.blocks
		j = sort.Search(len(bs)-1, func(k int) bool { return bs[k+1][0].Label > label })
		b = bs[j]
	}
	i, ok = slices.BinarySearchFunc(b, label, func(a Arc, l string) int { return strings.Compare(a.Label, l) })
	return b, j, i, ok
}

// arc returns label's arc in n, or no arc.
func (n *Node) arc(label string) Arc {
	if b, _, i, ok := n.locate(label); ok {
		return b[i]
	}
	return Arc{}
}

// splice replaces arcs [i, i+del) of n's block j with ins; the writer must
// own n (see prep). A flat node is edited in place, and blocked past
// blockSize arcs; a block is replaced by an edited copy, halved past
// blockSize and dropped once empty if others remain.
func (n *Node) splice(j, i, del int, ins ...Arc) {
	if n.blocks == nil {
		if n.Arcs = slices.Replace(n.Arcs, i, i+del, ins...); len(n.Arcs) > blockSize {
			n.Arcs, n.blocks = []Arc{}, chunk(n.Arcs)
		}
		return
	}
	bs := *n.blocks
	// One array, sized once: slices.Concat, built on Grow, allocates a
	// second one under the race detector.
	b := make([]Arc, 0, len(bs[j])-del+len(ins))
	switch b = append(append(append(b, bs[j][:i]...), ins...), bs[j][i+del:]...); {
	case len(b) > blockSize:
		bs[j] = b[: len(b)/2 : len(b)/2]
		*n.blocks = slices.Insert(bs, j+1, b[len(b)/2:])
	case len(b) == 0 && len(bs) > 1:
		*n.blocks = slices.Delete(bs, j, j+1)
	default:
		bs[j] = b
	}
}

// chunk cuts arcs into full blocks: windows on their array, which nothing
// writes again.
func chunk(arcs []Arc) *[][]Arc {
	bs := make([][]Arc, 0, len(arcs)/blockSize+1)
	for len(arcs) > 0 {
		k := min(blockSize, len(arcs))
		bs, arcs = append(bs, arcs[:k:k]), arcs[k:]
	}
	return &bs
}

// bind puts a in place of the arc with a's label, or in order if n has
// none. The writer must own n (see prep).
func (n *Node) bind(a Arc) {
	_, j, i, ok := n.locate(a.Label)
	del := 0
	if ok {
		del = 1
	}
	n.splice(j, i, del, a)
}

// unbind removes label's arc from n, which the writer must own. The last to
// go leaves the arcs empty, not nil: how an emptied map pickled, and still does.
func (n *Node) unbind(label string) {
	if _, j, i, ok := n.locate(label); ok {
		n.splice(j, i, 1)
	}
}

// NewTree returns an empty tree.
func NewTree() *Tree {
	return &Tree{Root: &Node{Arcs: []Arc{}}}
}

// NewRoot is the core.Config.NewRoot constructor for a name-server store.
func NewRoot() any { return NewTree() }

func init() {
	pickle.Register(&Tree{})
	pickle.Register(&Node{})
	core.RegisterUpdate(&SetValue{})
	core.RegisterUpdate(&DeleteSubtree{})
	core.RegisterUpdate(&PutSubtree{})
	core.RegisterUpdate(&Move{})
}

// ErrNotFound is returned when a path does not name a node.
var ErrNotFound = errors.New("nameserver: name not found")

// ErrNoValue is returned when a node exists but carries no value.
var ErrNoValue = errors.New("nameserver: name has no value")

// ErrSharedSubtree refuses a subtree that reaches a node twice: by a cycle,
// which no walk returns from, or by two arcs, which would alias two names.
var ErrSharedSubtree = errors.New("nameserver: subtree reaches a node twice")

// MaxNameLabels bounds the labels of a name. A checkpoint pickles the tree
// as nested values, three per label, within pickle.MaxDepth (512); 128
// leaves room for the replica root's wrapping.
const MaxNameLabels = 128

// ErrTooDeep refuses an update that would bind a name of more than
// MaxNameLabels labels: no checkpoint could then record the tree.
var ErrTooDeep = errors.New("nameserver: name has too many labels")

// checkDepth refuses a name of path's labels plus height more.
func checkDepth(path []string, height int) error {
	if n := len(path) + height; n > MaxNameLabels {
		return fmt.Errorf("%w: %s reaches %d, past %d", ErrTooDeep, JoinPath(path), n, MaxNameLabels)
	}
	return nil
}

// SplitPath parses a slash-separated name into its components, rejecting
// empty components. The empty string names the root.
func SplitPath(path string) ([]string, error) {
	path = strings.Trim(path, "/")
	if path == "" {
		return nil, nil
	}
	parts := strings.Split(path, "/")
	for _, p := range parts {
		if p == "" {
			return nil, fmt.Errorf("nameserver: empty component in path %q", path)
		}
	}
	return parts, nil
}

// JoinPath is the inverse of SplitPath.
func JoinPath(parts []string) string { return strings.Join(parts, "/") }

// at walks the tree to the name parts and returns the arc that leads
// there (the root's is an arc to Root), or no arc.
func (t *Tree) at(parts []string) Arc {
	if i, _, a := t.reach(parts); i == len(parts) {
		return a
	}
	return Arc{}
}

// reach walks the tree along parts as far as names exist. It returns how
// many of parts' labels do (i), the arc to the last of those, and how many
// lead to the last Node on the way (h): past it, the walk read an inline path.
func (t *Tree) reach(parts []string) (i, h int, a Arc) {
	for a = (Arc{Child: t.Root}); i < len(parts); i++ {
		next := a.step(parts[i])
		if !next.exists() {
			break
		}
		if a.Child != nil {
			h = i
		}
		a = next
	}
	return i, h, a
}

// prep returns a node the writer may mutate in the current epoch: n
// itself when it was born after the last snapshot, otherwise a shallow
// copy (child pointers shared) stamped with the current epoch, whose edits
// snapshots cannot see: a flat node's arcs are copied to a fresh array, in
// whose spare capacity no insert can land; a blocked node's index is
// copied, its blocks shared; a flat node of more than blockSize arcs is
// blocked instead, its blocks windows on the old array.
func (t *Tree) prep(n *Node) *Node {
	if n.born == t.epoch {
		return n
	}
	c := *n
	switch c.born = t.epoch; {
	case n.blocks != nil:
		bs := slices.Clone(*n.blocks)
		c.blocks = &bs
	case len(n.Arcs) > blockSize:
		c.Arcs, c.blocks = []Arc{}, chunk(n.Arcs)
	default:
		c.Arcs = slices.Clone(n.Arcs)
	}
	return &c
}

// writable walks to parts copy-on-write and returns the writable node
// there. With create it makes the nodes that are missing (ensure); without,
// it returns nil when the path does not fully exist (cowPath; the existing
// prefix may have been cloned, which changes no content). The rebuilt path is
// installed as the tree's root; everything off it is shared with the past.
func (t *Tree) writable(parts []string, create bool) *Node {
	if t.Root == nil {
		if !create {
			return nil
		}
		t.Root = &Node{Arcs: []Arc{}, born: t.epoch}
	}
	t.Root = t.prep(t.Root)
	n := t.Root
	for _, p := range parts {
		a := n.arc(p)
		var c *Node
		switch {
		case a.Child != nil:
			c = t.prep(a.Child)
		case a.leaf != "": // open the inline path: its first node becomes a Node
			c = a.Node()
			c.born = t.epoch
		case !create:
			return nil
		default:
			c = &Node{born: t.epoch}
		}
		if c != a.Child { // a private child is already bound
			n.bind(Arc{Label: p, Child: c})
		}
		n = c
	}
	return n
}

func (t *Tree) ensure(parts []string) *Node  { return t.writable(parts, true) }
func (t *Tree) cowPath(parts []string) *Node { return t.writable(parts, false) }

// set gives the name parts s's value and presence, and with stamps its
// stamps too, creating the name and its ancestors if missing — unless lww
// and the name holds a newer write than s (see newer), when set changes
// nothing and returns false. A leaf left bare is held inline, with the path
// to it from the last Node on the way: a new name's from its deepest
// existing ancestor, opened if inline; an inline path's own name's from the
// node whose arc holds the path. Any other node is made writable.
func (t *Tree) set(parts []string, s Node, stamps, lww bool) bool {
	i, h, a := t.reach(parts)
	var now Node                // what the name holds now: nothing if it is new
	inlinable := len(parts) > 0 // the root is no arc's
	switch {
	case i < len(parts):
		h = i
	case a.Child != nil:
		now = *a.Child
		inlinable = inlinable && now.Arcs == nil && now.blocks == nil
	case !a.exists(): // no root
	case a.leaf[0] == 0: // a plain node on an inline path
		inlinable = false
	default:
		a.unbox(&now)
	}
	if lww && !newer(&s, &now) {
		return false
	}
	if now.scalars(s, stamps); inlinable && now.bare() {
		t.ensure(parts[:h]).bind(Arc{Label: parts[h], leaf: leafOf(parts[h+1:], &now)})
		return true
	}
	t.ensure(parts).scalars(s, stamps)
	return true
}

// newer reports whether s's write supersedes the one on n: last-writer-wins
// on (Stamp, StampBy), a name never written losing to any, and a tie to s.
func newer(s, n *Node) bool {
	return !n.HasValue && n.Stamp == 0 || s.Stamp > n.Stamp || s.Stamp == n.Stamp && s.StampBy >= n.StampBy
}

// scalars copies s's value and presence to n, and with stamps its stamps.
func (n *Node) scalars(s Node, stamps bool) {
	n.Value, n.HasValue = s.Value, s.HasValue
	if stamps {
		n.Stamp, n.StampBy = s.Stamp, s.StampBy
	}
}

// split separates the last label of a non-empty path from its directory.
func split(path []string) (dir []string, label string) {
	return path[:len(path)-1], path[len(path)-1]
}

// SnapshotView implements core.VersionedRoot: it returns an immutable
// view of the tree sharing every node, and advances the epoch so that
// every later mutation copies the nodes the view can reach. Called by the
// store's single writer after each applied update.
func (t *Tree) SnapshotView() any {
	t.epoch++
	r := t.Root
	if r == nil {
		r = &Node{}
	}
	return &Tree{Root: r}
}

// FindNode walks to the node named by parts, or nil. The returned node must
// not be mutated (for an inline leaf it is a copy).
func (t *Tree) FindNode(parts []string) *Node { return t.at(parts).Node() }

// SetStamped gives the name parts value, written at Lamport time stamp by
// origin by, unless it holds a newer write: the replica package's
// last-writer-wins Set, one walk to compare and write. It creates the name
// and its ancestors if missing, and reports whether the write won.
func (t *Tree) SetStamped(parts []string, value string, stamp uint64, by string) bool {
	return t.set(parts, Node{Value: value, HasValue: true, Stamp: stamp, StampBy: by}, true, true)
}

// copyNode deep-copies a subtree into the form the tree holds: bare paths
// inline, the input-only Children folded into Arcs, and Arcs strictly
// ascending (of two arcs with one label the first stays, and an arc beats a
// Children entry).
func copyNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{Value: n.Value, HasValue: n.HasValue, Stamp: n.Stamp, StampBy: n.StampBy}
	if arcs := n.AllArcs(); arcs != nil || n.Children != nil {
		out.Arcs = make([]Arc, 0, len(arcs)+len(n.Children))
		for _, a := range arcs {
			if a.Child != nil {
				a = copyArc(a.Label, a.Child)
			}
			out.Arcs = append(out.Arcs, a)
		}
		for label, c := range n.Children {
			out.Arcs = append(out.Arcs, copyArc(label, c))
		}
		slices.SortStableFunc(out.Arcs, func(a, b Arc) int { return strings.Compare(a.Label, b.Label) })
		out.Arcs = slices.CompactFunc(out.Arcs, func(a, b Arc) bool { return a.Label == b.Label })
	}
	return out
}

// copyArc returns label's arc to a copy of n, holding it inline if it may.
func copyArc(label string, n *Node) Arc {
	if a := arcTo(label, n); a.Child == nil { // inline, or an arc to nil
		return a
	}
	return arcTo(label, copyNode(n))
}

// inspect walks the subtree at n and reports whether it is already in
// copyNode's form and its height, the labels of its longest name below n;
// or ErrSharedSubtree if the walk meets a node in seen: every node reached,
// across calls too.
func inspect(n *Node, seen map[*Node]bool) (canonical bool, height int, err error) {
	if n == nil {
		return true, 0, nil
	}
	if seen[n] {
		return false, 0, ErrSharedSubtree
	}
	seen[n], canonical = true, n.Children == nil
	arcs := n.AllArcs()
	for i, a := range arcs {
		c, h, err := inspect(a.Child, seen)
		if err != nil {
			return false, 0, err
		}
		canonical = canonical && c && (i == 0 || arcs[i-1].Label < a.Label)
		height = max(height, h+1, span(a.leaf))
	}
	for _, c := range n.Children {
		_, h, err := inspect(c, seen)
		if err != nil {
			return false, 0, err
		}
		height = max(height, h+1)
	}
	return canonical, height, nil
}

// countNodes reports the number of names in a subtree, itself and inline
// paths included.
func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, a := range n.AllArcs() {
		total += countNodes(a.Child) + span(a.leaf)
	}
	return total
}

// --- update types (single-shot transactions) ---

// SetValue sets the value at Path, creating intermediate nodes.
type SetValue struct {
	Path  []string
	Value string
}

// Verify implements core.Update.
func (u *SetValue) Verify(root any) error {
	if err := checkDepth(u.Path, 0); err != nil {
		return err
	}
	_, err := treeOf(root)
	return err
}

// Apply implements core.Update.
func (u *SetValue) Apply(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	t.set(u.Path, Node{Value: u.Value, HasValue: true}, false, false)
	return nil
}

// DeleteSubtree removes the node at Path and everything beneath it. Its
// precondition is that the node exists.
type DeleteSubtree struct {
	Path []string
}

// Verify implements core.Update.
func (u *DeleteSubtree) Verify(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	if len(u.Path) == 0 {
		return errors.New("nameserver: cannot delete the root")
	}
	if !t.at(u.Path).exists() {
		return fmt.Errorf("%w: %s", ErrNotFound, JoinPath(u.Path))
	}
	return nil
}

// Apply implements core.Update.
func (u *DeleteSubtree) Apply(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	dir, label := split(u.Path)
	if parent := t.cowPath(dir); parent != nil { // else an equivalent replayed update deleted it; idempotent
		parent.unbind(label)
	}
	return nil
}

// PutSubtree installs an entire subtree at Path, replacing whatever was
// there — the paper's "update operations for any set of sub-trees".
type PutSubtree struct {
	Path    []string
	Subtree *Node
}

// Verify implements core.Update. A subtree that reaches a node twice, or
// would bind a name too deep, is refused. One spelled with the input-only
// Children, or with arcs out of order, is replaced by its canonical copy
// here — core pickles an update after Verify and before Apply, and what is
// logged must be what is applied.
func (u *PutSubtree) Verify(root any) error {
	if u.Subtree == nil {
		return errors.New("nameserver: nil subtree")
	}
	if len(u.Path) == 0 {
		return errors.New("nameserver: cannot replace the root; use paths")
	}
	canonical, height, err := inspect(u.Subtree, map[*Node]bool{})
	if err == nil {
		err = checkDepth(u.Path, height)
	}
	if err != nil {
		return err
	}
	if !canonical {
		u.Subtree = copyNode(u.Subtree)
	}
	_, err = treeOf(root)
	return err
}

// Apply implements core.Update. A subtree that reaches a node twice fails:
// none comes off the log, where an arc owns its node, but a caller may skip
// Verify.
func (u *PutSubtree) Apply(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	if _, _, err := inspect(u.Subtree, map[*Node]bool{}); err != nil {
		return err
	}
	dir, label := split(u.Path)
	// Deep-copy so the caller's subtree and the database never alias.
	t.ensure(dir).bind(copyArc(label, u.Subtree))
	return nil
}

// Move renames the subtree at From to To. Preconditions: From exists, To
// does not, To is not inside From, and no name lands too deep.
type Move struct {
	From, To []string
}

// Verify implements core.Update.
func (u *Move) Verify(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	if len(u.From) == 0 || len(u.To) == 0 {
		return errors.New("nameserver: move involving the root")
	}
	a := t.at(u.From)
	if !a.exists() {
		return fmt.Errorf("%w: %s", ErrNotFound, JoinPath(u.From))
	}
	if len(u.To) > len(u.From) { // else no moved name gets deeper
		_, height, err := inspect(a.Child, map[*Node]bool{})
		if err == nil {
			err = checkDepth(u.To, max(height, span(a.leaf)-1))
		}
		if err != nil {
			return err
		}
	}
	if t.at(u.To).exists() {
		return fmt.Errorf("nameserver: destination %s exists", JoinPath(u.To))
	}
	if isPrefix(u.From, u.To) {
		return fmt.Errorf("nameserver: cannot move %s into itself", JoinPath(u.From))
	}
	return nil
}

// Apply implements core.Update.
func (u *Move) Apply(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	a := t.at(u.From)
	if !a.exists() {
		return fmt.Errorf("nameserver: move source vanished: %s", JoinPath(u.From))
	}
	// The moved subtree itself is shared, not copied: it is immutable
	// under the copy-on-write discipline, so the old snapshot keeps
	// reaching it at From while the new version reaches it at To.
	dir, label := split(u.From)
	t.cowPath(dir).unbind(label)
	dir, a.Label = split(u.To)
	t.ensure(dir).bind(a)
	return nil
}

func isPrefix(prefix, path []string) bool {
	if len(path) < len(prefix) {
		return false
	}
	for i := range prefix {
		if path[i] != prefix[i] {
			return false
		}
	}
	return true
}

// TreeOf finds the name tree in a store root: the root itself, or the tree
// a root keeps inside it and returns from NameTree, as a replica's does.
// Enquiries read through it. An update takes only a bare *Tree (treeOf), so
// a name-tree update applied raw to a store whose root keeps more than the
// tree is refused.
func TreeOf(root any) (*Tree, error) {
	if r, ok := root.(interface{ NameTree() *Tree }); ok && r.NameTree() != nil {
		root = r.NameTree()
	}
	return treeOf(root)
}

func treeOf(root any) (*Tree, error) {
	t, ok := root.(*Tree)
	if !ok {
		return nil, fmt.Errorf("nameserver: root is %T, not *Tree", root)
	}
	if t.Root == nil {
		t.Root = &Node{Arcs: []Arc{}}
	}
	return t, nil
}

// --- enquiries: what Server and the replicated service both answer from ---

// Lookup returns the value at parts.
func (t *Tree) Lookup(parts []string) (string, error) {
	switch a := t.at(parts); {
	case a.leaf != "" && a.leaf[0] != 0:
		v, _, _ := bareLeaf(a.leaf)
		return v, nil
	case !a.exists():
		return "", fmt.Errorf("%w: %s", ErrNotFound, JoinPath(parts))
	case a.Child == nil || !a.Child.HasValue: // a plain node on an inline path has none
		return "", fmt.Errorf("%w: %s", ErrNoValue, JoinPath(parts))
	default:
		return a.Child.Value, nil
	}
}

// List returns the sorted arc labels under parts.
func (t *Tree) List(parts []string) ([]string, error) {
	a := t.at(parts)
	if !a.exists() {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, JoinPath(parts))
	}
	var bs [][]Arc // none under an inline leaf
	if a.Child != nil {
		bs = a.Child.blockList()
	} else if label, _, ok := pathNext(a.leaf); ok {
		return []string{label}, nil
	}
	size := 0
	for _, b := range bs {
		size += len(b)
	}
	out := make([]string, 0, size)
	for _, b := range bs {
		for _, a := range b {
			out = append(out, a.Label)
		}
	}
	return out, nil
}

// Enumerate calls fn for every (name, value) pair at or below parts, in
// depth-first sorted order. Returning a non-nil error from fn stops the
// walk.
func (t *Tree) Enumerate(parts []string, fn func(name, value string) error) error {
	a := t.at(parts)
	if !a.exists() {
		return fmt.Errorf("%w: %s", ErrNotFound, JoinPath(parts))
	}
	return walk(a, parts, fn)
}

// walk enumerates the name at path, to which a leads, and all below it.
func walk(a Arc, path []string, fn func(name, value string) error) error {
	if label, rest, ok := pathNext(a.leaf); ok {
		return walk(Arc{Label: label, leaf: rest}, append(path, label), fn)
	}
	if a.leaf != "" {
		v, _, _ := bareLeaf(a.leaf)
		return fn(JoinPath(path), v)
	}
	n := a.Child
	if n == nil {
		return nil
	}
	if n.HasValue {
		if err := fn(JoinPath(path), n.Value); err != nil {
			return err
		}
	}
	for _, a := range n.AllArcs() {
		if err := walk(a, append(path, a.Label), fn); err != nil {
			return err
		}
	}
	return nil
}
