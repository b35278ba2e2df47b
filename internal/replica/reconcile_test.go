package replica

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/netsim"
	"smalldb/internal/obs"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// dump renders a node's whole name tree and its vector, so two nodes hold
// the same state exactly when their dumps are equal.
func dump(t *testing.T, n *Node) string {
	t.Helper()
	var b strings.Builder
	if err := n.Enumerate("", func(name, value string) error {
		fmt.Fprintf(&b, "%s=%s\n", name, value)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	vec, err := n.Vector()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "vector %v", vec)
	return b.String()
}

// requireSame fails unless every node dumps like the first.
func requireSame(t *testing.T, nodes ...*Node) {
	t.Helper()
	want := dump(t, nodes[0])
	for _, n := range nodes[1:] {
		if got := dump(t, n); got != want {
			t.Fatalf("%s and %s diverge:\n%s\n--- against ---\n%s", nodes[0].Name(), n.Name(), want, got)
		}
	}
}

// awaitSlot waits until n's vector slot for origin reaches seq.
func awaitSlot(t *testing.T, n *Node, origin string, seq uint64) bool {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if vec, err := n.Vector(); err == nil && vec[origin] >= seq {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// TestRestoredOriginDoesNotForkItsStream: an origin of N = 3 at W = 2
// commits seq k with b's ack while c is cut off, then loses its disk and
// restores from c, whose slot for it is k−1. Its next Set must not reuse k
// — b holds a different update there — but take k back from b first and
// land at k+1, so the group converges.
func TestRestoredOriginDoesNotForkItsStream(t *testing.T) {
	nw := netsim.New(1, netsim.Options{})
	defer nw.Close()
	b := serveNet(t, nw, Config{Name: "b", FS: vfs.NewMem(2)})
	c := serveNet(t, nw, Config{Name: "c", FS: vfs.NewMem(3)})
	defer b.close()
	defer c.close()
	origin := func(fs vfs.FS) *netNode {
		return serveNet(t, nw, Config{Name: "a", FS: fs, Policy: fastPolicy, GroupConfig: groupOf(2, "a", "b", "c")})
	}
	a := origin(vfs.NewMem(1))
	connect(a, b, nw)
	connect(a, c, nw)
	const k = 3
	for i := 1; i < k; i++ {
		if err := a.node.Set(fmt.Sprintf("x/%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if !awaitSlot(t, c.node, "a", k-1) {
		t.Fatalf("c never reached seq %d", k-1)
	}
	nw.Partition("a", "c")
	a.node.MarkLagging("c")
	if err := a.node.Set("x/k", "on-b-only"); err != nil {
		t.Fatal(err)
	}

	// a's disk is lost; it comes back empty and restores from c before it
	// rejoins the group.
	a.close()
	nw.Heal("a", "c")
	a = origin(vfs.NewMem(11))
	defer a.close()
	toC := rpc.NewClientDialer(nw.Dialer("a", "c"))
	defer toC.Close()
	if err := a.node.RestoreFromPeer(toC); err != nil {
		t.Fatal(err)
	}
	if vec, _ := a.node.Vector(); vec["a"] != k-1 {
		t.Fatalf("restored slot = %d, want %d", vec["a"], k-1)
	}
	connect(a, b, nw)
	connect(a, c, nw)
	if err := a.node.Set("y/other", "v"); err != nil {
		t.Fatal(err)
	}
	if vec, _ := a.node.Vector(); vec["a"] != k+1 {
		t.Errorf("after the Set the origin's slot is %d, want %d: seq %d was reused", vec["a"], k+1, k)
	}

	nodes := []*netNode{a, b, c}
	for _, to := range nodes {
		for _, from := range nodes {
			if to == from {
				continue
			}
			cl := rpc.NewClientDialer(nw.Dialer(to.node.Name(), from.node.Name()))
			err := to.node.SyncWith(cl)
			cl.Close()
			if err != nil {
				t.Fatalf("%s<-%s: %v", to.node.Name(), from.node.Name(), err)
			}
		}
	}
	requireSame(t, a.node, b.node, c.node)
	if v, err := b.node.Lookup("x/k"); err != nil || v != "on-b-only" {
		t.Fatalf("x/k = %q, %v after convergence", v, err)
	}
}

// holdFS is a file system whose next log sync, once armed, signals held
// and waits for release before it runs.
type holdFS struct {
	vfs.FS
	armed   atomic.Bool
	held    chan struct{}
	release chan struct{}
}

type holdFile struct {
	vfs.File
	fs *holdFS
}

func (f *holdFS) Create(name string) (vfs.File, error) {
	file, err := f.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return holdFile{file, f}, nil
}

func (f *holdFS) OpenRW(name string) (vfs.File, error) {
	file, err := f.FS.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return holdFile{file, f}, nil
}

func (h holdFile) Sync() error {
	if strings.Contains(h.Name(), "logfile") && h.fs.armed.CompareAndSwap(true, false) {
		h.fs.held <- struct{}{}
		<-h.fs.release
	}
	return h.File.Sync()
}

// TestPushOverlapsLocalSync: at W = 2 a member holds the entry while the
// primary's log sync is still held, its ack is not counted before that
// commit returns, and Set returns only once it has. When the held sync fails instead, the Set fails and poisons the
// primary; reopened on its crash image, the primary's first Set takes the
// orphaned entry back from the members and lands one past it.
func TestPushOverlapsLocalSync(t *testing.T) {
	mem := vfs.NewMem(1)
	ffs := faultfs.New(mem, faultfs.Options{CrashAt: faultfs.Never})
	hfs := &holdFS{FS: ffs, held: make(chan struct{}), release: make(chan struct{})}
	gc := makeGroupOf(t, Config{GroupConfig: groupOf(2, "a", "b", "c")}, hfs, vfs.NewMem(2), vfs.NewMem(3))
	const k = 3
	for i := 1; i < k; i++ {
		if err := gc.primary.Set(fmt.Sprintf("x/%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// heldSet runs one Set with its log sync held until a member holds seq;
	// it returns the Set's result once the sync is released.
	heldSet := func(name string, seq uint64) error {
		t.Helper()
		hfs.armed.Store(true)
		done := make(chan error, 1)
		go func() { done <- gc.primary.Set(name, "v") }()
		<-hfs.held
		reached := awaitSlot(t, gc.members[0], "a", seq)
		// The pusher has b's reply by now, or soon; it must not count the
		// ack before the held commit returns.
		counted := false
		for end := time.Now().Add(20 * time.Millisecond); reached && !counted && time.Now().Before(end); time.Sleep(time.Millisecond) {
			counted = gc.primary.Acked()["b"] >= seq
		}
		select {
		case err := <-done:
			close(hfs.release)
			t.Fatalf("Set returned %v while its log sync was held", err)
		default:
		}
		hfs.release <- struct{}{}
		if !reached {
			t.Fatalf("member b never reached seq %d while the primary's sync was held", seq)
		}
		if counted {
			t.Fatalf("b's ack of seq %d was counted while the primary's sync was held", seq)
		}
		return <-done
	}
	if err := heldSet("x/k", k); err != nil {
		t.Fatal(err)
	}

	ffs.FailSyncAt(1, errors.New("injected sync failure"))
	if err := heldSet("y/orphan", k+1); err == nil {
		t.Fatal("Set succeeded though its log sync failed")
	}
	if gc.primary.Store().Err() == nil {
		t.Fatal("a failed log sync left the primary unpoisoned")
	}
	gc.primary.Close()
	a, err := Open(Config{Name: "a", FS: ffs.Snapshot(), GroupConfig: groupOf(2, "a", "b", "c")})
	if err != nil {
		t.Fatal(err)
	}
	gc.primary = a
	if vec, _ := a.Vector(); vec["a"] != k {
		t.Fatalf("reopened slot = %d, want %d", vec["a"], k)
	}
	for i, m := range gc.members {
		if err := a.Connect(m.Name(), pipeTo(gc.servers[i])); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Set("z/after", "v"); err != nil {
		t.Fatal(err)
	}
	if vec, _ := a.Vector(); vec["a"] != k+2 {
		t.Fatalf("after reopening, the first Set left the slot at %d, want %d", vec["a"], k+2)
	}
	for _, m := range gc.members {
		if !awaitSlot(t, m, "a", k+2) {
			t.Fatalf("member %s never reached seq %d", m.Name(), k+2)
		}
	}
	requireSame(t, a, gc.members[0], gc.members[1])
}

// TestLazyMemberHoldsNoOrphan: at N = 3, W = 2 eager b holds seq k while
// the primary's log sync is still held and lazy c does not. When that sync
// fails, c's slot never passes the durable prefix k − 1.
func TestLazyMemberHoldsNoOrphan(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never})
	hfs := &holdFS{FS: ffs, held: make(chan struct{}), release: make(chan struct{})}
	gc := makeGroupOf(t, Config{GroupConfig: groupOf(2, "a", "b", "c")}, hfs, vfs.NewMem(2), vfs.NewMem(3))
	b, c := gc.members[0], gc.members[1]
	const k = 3
	for i := 1; i < k; i++ {
		if err := gc.primary.Set(fmt.Sprintf("x/%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if !awaitSlot(t, c, "a", k-1) {
		t.Fatalf("lazy c never reached the durable seq %d", k-1)
	}
	// maxSlot is the highest slot c shows for a over a few lingers.
	maxSlot := func() (slot uint64) {
		for end := time.Now().Add(10 * lazyLinger); time.Now().Before(end); time.Sleep(time.Millisecond) {
			vec, err := c.Vector()
			if err != nil {
				t.Fatal(err)
			}
			slot = max(slot, vec["a"])
		}
		return slot
	}
	ffs.FailSyncAt(1, errors.New("injected sync failure"))
	hfs.armed.Store(true)
	done := make(chan error, 1)
	go func() { done <- gc.primary.Set("y/orphan", "v") }()
	<-hfs.held
	reached := awaitSlot(t, b, "a", k)
	held := maxSlot()
	hfs.release <- struct{}{}
	if !reached {
		t.Fatalf("eager b never reached seq %d while the primary's sync was held", k)
	}
	if held >= k {
		t.Fatalf("lazy c reached seq %d while the primary's sync was held", held)
	}
	if err := <-done; err == nil {
		t.Fatal("Set succeeded though its log sync failed")
	}
	if after := maxSlot(); after != k-1 {
		t.Fatalf("after the failed sync lazy c's slot is %d, want the durable prefix %d", after, k-1)
	}
}

// TestStaleSnapshotIsNotLogged: a snapshot holding nothing the node lacks —
// what a pull answered against an outdated vector can bring — is skipped,
// not logged as an install that would rewrite the node's root.
func TestStaleSnapshotIsNotLogged(t *testing.T) {
	n, err := Open(Config{Name: "a", FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if err := n.Set("x", "1"); err != nil {
		t.Fatal(err)
	}
	stale, err := n.catchupFor(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Set("y", "2"); err != nil {
		t.Fatal(err)
	}
	before := n.Store().AppliedSeq()
	var reply PushReply
	if err := NewService(n).Push(&stale, &reply, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if got := n.Store().AppliedSeq(); got != before {
		t.Fatalf("installing a snapshot behind the node logged it: AppliedSeq %d -> %d", before, got)
	}
	if v, err := n.Lookup("y"); err != nil || v != "2" {
		t.Fatalf("y = %q, %v after the skipped install", v, err)
	}
}
