// Package nameserver implements the paper's running example: "a general
// purpose name-to-value mapping, where the names are strings and the values
// are trees whose arcs are labelled by strings" (§3), built directly on the
// core store. Where the paper keeps "a tree of hash tables... indexed by
// strings, [delivering] values that are further hash tables", a node's table
// here is a label-sorted slice of arcs searched by bisection: a fraction of a
// hash table's memory, and it still pickles as the map it replaced.
//
// Names are slash-separated paths ("net/hosts/gva"). Every node may carry a
// string value and arbitrarily many labelled children, so the same tree
// naturally holds user-account records, network configuration and file
// directories — the §1 examples. Enquiry operations (Lookup, List,
// Enumerate, SubtreeCopy) are pure virtual-memory reads; update operations
// (SetValue, DeleteSubtree, PutSubtree, Move) are single-shot transactions,
// each a registered update type that pickles into one log entry.
package nameserver

import (
	"errors"
	"fmt"
	"slices"
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
// had any) — the paper's hash table delivering further hash tables.
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
}

// Arc is one labelled edge. Being a pickle.MapPair, a []Arc pickles as the
// string-keyed map of nodes it replaced, and loads from one without building it.
type Arc struct {
	Label string
	Child *Node
}

// PickleMapPair implements pickle.MapPair.
func (Arc) PickleMapPair() {}

// search returns where label's arc is, or belongs, in n, and whether it is.
func (n *Node) search(label string) (int, bool) {
	return slices.BinarySearchFunc(n.Arcs, label, func(a Arc, l string) int { return strings.Compare(a.Label, l) })
}

// bind points label's arc at c, inserting the arc in order if n has none.
// The writer must own n (see prep).
func (n *Node) bind(label string, c *Node) {
	i, ok := n.search(label)
	if !ok {
		n.Arcs = slices.Insert(n.Arcs, i, Arc{Label: label})
	}
	n.Arcs[i].Child = c
}

// unbind removes label's arc from n, which the writer must own. The last to
// go leaves Arcs empty, not nil: how an emptied map pickled, and still does.
func (n *Node) unbind(label string) {
	if i, ok := n.search(label); ok {
		n.Arcs = slices.Delete(n.Arcs, i, i+1)
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

// find walks the tree to the node named by parts, or nil.
func (t *Tree) find(parts []string) *Node {
	n := t.Root
	for _, p := range parts {
		if n == nil {
			return nil
		}
		i, ok := n.search(p)
		if !ok {
			return nil
		}
		n = n.Arcs[i].Child
	}
	return n
}

// prep returns a node the writer may mutate in the current epoch: n
// itself when it was born after the last snapshot, otherwise a shallow
// copy (fields duplicated, arcs copied into a fresh array with the child
// pointers shared) stamped with the current epoch. Copying the arcs is
// what makes the write invisible to snapshots: they keep reaching the old
// array, and no insert can land in spare capacity they share.
func (t *Tree) prep(n *Node) *Node {
	if n.born == t.epoch {
		return n
	}
	c := *n
	c.Arcs, c.born = slices.Clone(n.Arcs), t.epoch
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
		i, ok := n.search(p)
		if !ok || n.Arcs[i].Child == nil {
			if !create {
				return nil
			}
			if !ok {
				n.Arcs = slices.Insert(n.Arcs, i, Arc{Label: p})
			}
			n.Arcs[i].Child = &Node{born: t.epoch}
		}
		n.Arcs[i].Child = t.prep(n.Arcs[i].Child)
		n = n.Arcs[i].Child
	}
	return n
}

func (t *Tree) ensure(parts []string) *Node  { return t.writable(parts, true) }
func (t *Tree) cowPath(parts []string) *Node { return t.writable(parts, false) }

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

// FindNode walks to the node named by parts, or nil. Exported for the
// replica package's stamped conflict resolution. The returned node must
// not be mutated; use EnsureNode for a writable node.
func (t *Tree) FindNode(parts []string) *Node { return t.find(parts) }

// EnsureNode walks to parts copy-on-write, creating intermediate nodes,
// and returns a node the caller may mutate before the update finishes.
// Exported for the replica package's stamped conflict resolution.
func (t *Tree) EnsureNode(parts []string) *Node { return t.ensure(parts) }

// copyNode deep-copies a subtree into the form the tree holds: the
// input-only Children folded into Arcs, and Arcs strictly ascending (of two
// arcs with one label the first stays, and an arc beats a Children entry).
func copyNode(n *Node) *Node {
	if n == nil {
		return nil
	}
	out := &Node{Value: n.Value, HasValue: n.HasValue, Stamp: n.Stamp, StampBy: n.StampBy}
	if n.Arcs != nil || n.Children != nil {
		out.Arcs = make([]Arc, 0, len(n.Arcs)+len(n.Children))
		for _, a := range n.Arcs {
			out.Arcs = append(out.Arcs, Arc{a.Label, copyNode(a.Child)})
		}
		for label, c := range n.Children {
			out.Arcs = append(out.Arcs, Arc{label, copyNode(c)})
		}
		slices.SortStableFunc(out.Arcs, func(a, b Arc) int { return strings.Compare(a.Label, b.Label) })
		out.Arcs = slices.CompactFunc(out.Arcs, func(a, b Arc) bool { return a.Label == b.Label })
	}
	return out
}

// canonical reports whether the subtree at n is already in that form.
func canonical(n *Node) bool {
	if n == nil {
		return true
	}
	for i, a := range n.Arcs {
		if (i > 0 && n.Arcs[i-1].Label >= a.Label) || !canonical(a.Child) {
			return false
		}
	}
	return n.Children == nil
}

// countNodes reports the number of nodes in a subtree, itself included.
func countNodes(n *Node) int {
	if n == nil {
		return 0
	}
	total := 1
	for _, a := range n.Arcs {
		total += countNodes(a.Child)
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
	_, err := treeOf(root)
	return err
}

// Apply implements core.Update.
func (u *SetValue) Apply(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	n := t.ensure(u.Path)
	n.Value = u.Value
	n.HasValue = true
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
	if t.find(u.Path) == nil {
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

// Verify implements core.Update. A subtree spelled with the input-only
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
	if !canonical(u.Subtree) {
		u.Subtree = copyNode(u.Subtree)
	}
	_, err := treeOf(root)
	return err
}

// Apply implements core.Update.
func (u *PutSubtree) Apply(root any) error {
	t, err := treeOf(root)
	if err != nil {
		return err
	}
	dir, label := split(u.Path)
	// Deep-copy so the caller's subtree and the database never alias.
	t.ensure(dir).bind(label, copyNode(u.Subtree))
	return nil
}

// Move renames the subtree at From to To. Preconditions: From exists, To
// does not, and To is not inside From.
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
	if t.find(u.From) == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, JoinPath(u.From))
	}
	if t.find(u.To) != nil {
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
	n := t.find(u.From)
	if n == nil {
		return fmt.Errorf("nameserver: move source vanished: %s", JoinPath(u.From))
	}
	// The moved subtree itself is shared, not copied: it is immutable
	// under the copy-on-write discipline, so the old snapshot keeps
	// reaching it at From while the new version reaches it at To.
	dir, label := split(u.From)
	t.cowPath(dir).unbind(label)
	dir, label = split(u.To)
	t.ensure(dir).bind(label, n)
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
	n := t.find(parts)
	if n == nil {
		return "", fmt.Errorf("%w: %s", ErrNotFound, JoinPath(parts))
	}
	if !n.HasValue {
		return "", fmt.Errorf("%w: %s", ErrNoValue, JoinPath(parts))
	}
	return n.Value, nil
}

// List returns the sorted arc labels under parts.
func (t *Tree) List(parts []string) ([]string, error) {
	n := t.find(parts)
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, JoinPath(parts))
	}
	out := make([]string, len(n.Arcs))
	for i, a := range n.Arcs {
		out[i] = a.Label
	}
	return out, nil
}

// Enumerate calls fn for every (name, value) pair at or below parts, in
// depth-first sorted order. Returning a non-nil error from fn stops the
// walk.
func (t *Tree) Enumerate(parts []string, fn func(name, value string) error) error {
	n := t.find(parts)
	if n == nil {
		return fmt.Errorf("%w: %s", ErrNotFound, JoinPath(parts))
	}
	return walk(n, parts, fn)
}

func walk(n *Node, path []string, fn func(name, value string) error) error {
	if n == nil {
		return nil
	}
	if n.HasValue {
		if err := fn(JoinPath(path), n.Value); err != nil {
			return err
		}
	}
	for _, a := range n.Arcs {
		if err := walk(a.Child, append(path, a.Label), fn); err != nil {
			return err
		}
	}
	return nil
}
