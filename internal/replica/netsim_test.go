package replica

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"smalldb/internal/netsim"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// fastPolicy fails fast when a peer is unreachable, so tests that
// deliberately partition do not stall a full default retry budget per push.
var fastPolicy = rpc.RetryPolicy{MaxAttempts: 2, Budget: 200 * time.Millisecond, BaseDelay: time.Millisecond, PerTry: 100 * time.Millisecond}

// netNode is one replica served over a netsim endpoint.
type netNode struct {
	node *Node
	srv  *rpc.Server
	l    *netsim.Listener
}

// openNetNode opens a node on fs — one of the pair a, b at W = 1 — and
// serves its Replica service at the netsim endpoint named cfgName.
func openNetNode(t *testing.T, nw *netsim.Network, cfgName string, fs vfs.FS) *netNode {
	t.Helper()
	return serveNet(t, nw, Config{Name: cfgName, FS: fs, Policy: fastPolicy, GroupConfig: groupOf(1, "a", "b")})
}

// serveNet opens a node from cfg and serves its Replica service at the
// netsim endpoint named after it.
func serveNet(t *testing.T, nw *netsim.Network, cfg Config) *netNode {
	t.Helper()
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := rpc.NewServer()
	if err := srv.Register("Replica", NewService(n)); err != nil {
		t.Fatal(err)
	}
	l, err := nw.Listen(cfg.Name)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return &netNode{node: n, srv: srv, l: l}
}

// connect registers a reconnecting client from a to b's endpoint.
func connect(a, b *netNode, nw *netsim.Network) *rpc.Client {
	c := rpc.NewClientDialer(nw.Dialer(a.node.Name(), b.node.Name()))
	if err := a.node.Connect(b.node.Name(), c); err != nil {
		panic(err)
	}
	return c
}

func (n *netNode) close() {
	n.srv.Close()
	n.l.Close()
	n.node.Close()
}

// converged reports whether both nodes hold identical version vectors.
func converged(t *testing.T, a, b *Node) bool {
	t.Helper()
	va, err := a.Vector()
	if err != nil {
		t.Fatal(err)
	}
	vb, err := b.Vector()
	if err != nil {
		t.Fatal(err)
	}
	return reflect.DeepEqual(va, vb)
}

// TestPartitionHealConvergence partitions a live pair, keeps updating both
// sides, heals, and requires anti-entropy to converge the replicas with
// every acked update present on both.
func TestPartitionHealConvergence(t *testing.T) {
	nw := netsim.New(1, netsim.Options{})
	defer nw.Close()
	a := openNetNode(t, nw, "a", vfs.NewMem(1))
	b := openNetNode(t, nw, "b", vfs.NewMem(2))
	defer a.close()
	defer b.close()
	ab := connect(a, b, nw)
	ba := connect(b, a, nw)

	if err := a.node.Set("pre/partition", "v0"); err != nil {
		t.Fatal(err)
	}
	nw.Partition("a", "b")
	// Both sides keep accepting updates: each commits locally (the ack)
	// and fails to push — the §7 model, where propagation is best-effort
	// and anti-entropy is the guarantee.
	for i := 0; i < 5; i++ {
		if err := a.node.Set(fmt.Sprintf("part/a%d", i), "va"); err != nil {
			t.Fatalf("acked update on a during partition: %v", err)
		}
		if err := b.node.Set(fmt.Sprintf("part/b%d", i), "vb"); err != nil {
			t.Fatalf("acked update on b during partition: %v", err)
		}
	}
	if converged(t, a.node, b.node) {
		t.Fatal("nodes converged across a partition")
	}
	nw.Heal("a", "b")
	if err := a.node.SyncWith(ab); err != nil {
		t.Fatalf("sync a<-b after heal: %v", err)
	}
	if err := b.node.SyncWith(ba); err != nil {
		t.Fatalf("sync b<-a after heal: %v", err)
	}
	if !converged(t, a.node, b.node) {
		t.Fatal("nodes did not converge after heal")
	}
	for i := 0; i < 5; i++ {
		for _, n := range []*Node{a.node, b.node} {
			if v, err := n.Lookup(fmt.Sprintf("part/a%d", i)); err != nil || v != "va" {
				t.Fatalf("%s: part/a%d = %q, %v", n.Name(), i, v, err)
			}
			if v, err := n.Lookup(fmt.Sprintf("part/b%d", i)); err != nil || v != "vb" {
				t.Fatalf("%s: part/b%d = %q, %v", n.Name(), i, v, err)
			}
		}
	}
}

// TestAckedUpdateSurvivesPartitionAndCrash composes netsim with faultfs:
// an update acked by node a while partitioned from b must survive the
// partition plus a crash of a — after a restarts from its durable image
// and the partition heals, both replicas hold the update.
func TestAckedUpdateSurvivesPartitionAndCrash(t *testing.T) {
	nw := netsim.New(1, netsim.Options{})
	defer nw.Close()
	ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never})
	a := openNetNode(t, nw, "a", ffs)
	b := openNetNode(t, nw, "b", vfs.NewMem(2))
	defer b.close()
	connect(a, b, nw)
	ba := connect(b, a, nw)

	nw.Partition("a", "b")
	if err := a.node.Set("acked/during/partition", "survivor"); err != nil {
		t.Fatalf("update not acked: %v", err)
	}
	// Crash a: freeze the synced-only durable image, as a power cut
	// would, and abandon the live process state.
	frozen := ffs.Snapshot()
	a.close() // tear down the dead incarnation (different disk by now)

	// a restarts from its durable image; the partition heals.
	nw.Heal("a", "b")
	a2 := openNetNode(t, nw, "a", frozen)
	defer a2.close()
	connect(a2, b, nw)

	if v, err := a2.node.Lookup("acked/during/partition"); err != nil || v != "survivor" {
		t.Fatalf("acked update lost across crash: %q, %v", v, err)
	}
	// b's client dials a by name, so it redials the restarted incarnation.
	if err := b.node.SyncWith(ba); err != nil {
		t.Fatalf("anti-entropy after heal+restart: %v", err)
	}
	if v, err := b.node.Lookup("acked/during/partition"); err != nil || v != "survivor" {
		t.Fatalf("acked update never reached the peer: %q, %v", v, err)
	}
}

// TestConvergenceUnderHostileNetwork runs both writers through a lossy,
// jittery link; retries absorb what they can, anti-entropy repairs the
// rest, and the pair must end converged once the weather clears.
func TestConvergenceUnderHostileNetwork(t *testing.T) {
	nw := netsim.New(7, netsim.Options{Profile: netsim.Profile{
		DropProb:     0.05,
		DelayProb:    0.2,
		MaxDelay:     200 * time.Microsecond,
		DialFailProb: 0.1,
	}})
	defer nw.Close()
	a := openNetNode(t, nw, "a", vfs.NewMem(1))
	b := openNetNode(t, nw, "b", vfs.NewMem(2))
	defer a.close()
	defer b.close()
	ab := connect(a, b, nw)
	ba := connect(b, a, nw)

	for i := 0; i < 40; i++ {
		if err := a.node.Set(fmt.Sprintf("h/a%d", i), "x"); err != nil {
			t.Fatalf("acked update failed on a: %v", err)
		}
		if err := b.node.Set(fmt.Sprintf("h/b%d", i), "x"); err != nil {
			t.Fatalf("acked update failed on b: %v", err)
		}
	}
	// Clear weather; anti-entropy must finish the job.
	nw.SetProfile(netsim.Profile{})
	for round := 0; ; round++ {
		if err := a.node.SyncWith(ab); err != nil {
			t.Fatalf("sync a<-b: %v", err)
		}
		if err := b.node.SyncWith(ba); err != nil {
			t.Fatalf("sync b<-a: %v", err)
		}
		if converged(t, a.node, b.node) {
			break
		}
		if round > 10 {
			t.Fatal("replicas failed to converge after the network healed")
		}
	}
	for i := 0; i < 40; i++ {
		if _, err := a.node.Lookup(fmt.Sprintf("h/b%d", i)); err != nil {
			t.Fatalf("a missing h/b%d: %v", i, err)
		}
		if _, err := b.node.Lookup(fmt.Sprintf("h/a%d", i)); err != nil {
			t.Fatalf("b missing h/a%d: %v", i, err)
		}
	}
}

// TestConcurrentDeletesConverge: two W = 1 origins delete the same name
// while cut off from each other, then heal. Each delete finds the name
// already gone at the other origin; it still takes its slot there, as a
// no-op, so neither stream stalls behind it, and anti-entropy alone brings
// the pair together, a later Set included.
func TestConcurrentDeletesConverge(t *testing.T) {
	nw := netsim.New(1, netsim.Options{})
	defer nw.Close()
	open := func(name string, seed int64) *netNode {
		g := groupOf(1, "a", "b")
		g.AntiEntropyEvery = 20 * time.Millisecond
		return serveNet(t, nw, Config{Name: name, FS: vfs.NewMem(seed), Policy: fastPolicy, GroupConfig: g})
	}
	a, b := open("a", 1), open("b", 2)
	defer a.close()
	defer b.close()
	connect(a, b, nw)
	connect(b, a, nw)

	if err := a.node.Set("x", "v"); err != nil {
		t.Fatal(err)
	}
	if !awaitSlot(t, b.node, "a", 1) {
		t.Fatal("b never took a's Set")
	}
	nw.Partition("a", "b")
	for _, n := range []*netNode{a, b} {
		if err := n.node.Delete("x"); err != nil {
			t.Fatalf("%s: delete x: %v", n.node.Name(), err)
		}
	}
	if err := b.node.Set("after", "v"); err != nil {
		t.Fatal(err)
	}
	nw.Heal("a", "b")
	if !awaitSlot(t, a.node, "b", 2) || !awaitSlot(t, b.node, "a", 2) {
		va, _ := a.node.Vector()
		vb, _ := b.node.Vector()
		t.Fatalf("the pair never converged: a %v, b %v", va, vb)
	}
	requireSame(t, a.node, b.node)
	if v, err := a.node.Lookup("after"); err != nil || v != "v" {
		t.Fatalf("a: after = %q, %v", v, err)
	}
}

// TestCheckpointedOriginsConverge: W = 1 origins that are cut off from one
// another each write and checkpoint, then heal. A checkpoint keeps the log
// holding an update its origin has not had acknowledged (unshipped), so
// whichever way the catch-up runs — entries, or a root installed over the
// receiver's own updates — the group converges. Each case would otherwise
// leave both sides refusing the other's root with ErrInstallRegress.
func TestCheckpointedOriginsConverge(t *testing.T) {
	open := func(t *testing.T, nw *netsim.Network, name string, fs vfs.FS, names ...string) *netNode {
		g := groupOf(1, names...)
		g.AntiEntropyEvery = 20 * time.Millisecond
		return serveNet(t, nw, Config{Name: name, FS: fs, Policy: fastPolicy, GroupConfig: g})
	}
	setThenCheckpoint := func(t *testing.T, n *Node, names ...string) {
		t.Helper()
		for _, name := range names {
			if err := n.Set(name, n.Name()); err != nil {
				t.Fatal(err)
			}
			if err := n.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// The cut holds until each origin has given up pushing to the other: a
	// push still retrying at the heal would deliver the update after all.
	awaitLagging := func(t *testing.T, n *Node, member string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !n.Lagging(member) {
			if time.Now().After(deadline) {
				t.Fatalf("%s still pushing to %s", n.Name(), member)
			}
			time.Sleep(time.Millisecond)
		}
	}
	awaitSame := func(t *testing.T, want map[string]uint64, nodes ...*Node) {
		t.Helper()
		for _, n := range nodes {
			for origin, seq := range want {
				if !awaitSlot(t, n, origin, seq) {
					vec, _ := n.Vector()
					t.Fatalf("%s never reached %s/%d: %v", n.Name(), origin, seq, vec)
				}
			}
		}
		requireSame(t, nodes...)
	}

	// Two checkpoints on each side: past the current log and any retained
	// one.
	t.Run("pair", func(t *testing.T) {
		nw := netsim.New(1, netsim.Options{})
		defer nw.Close()
		a, b := open(t, nw, "a", vfs.NewMem(1), "a", "b"), open(t, nw, "b", vfs.NewMem(2), "a", "b")
		defer a.close()
		defer b.close()
		connect(a, b, nw)
		connect(b, a, nw)
		setThenCheckpoint(t, a.node, "x")
		if !awaitSlot(t, b.node, "a", 1) {
			t.Fatal("b never took a's Set")
		}
		nw.Partition("a", "b")
		setThenCheckpoint(t, a.node, "a1", "a2")
		setThenCheckpoint(t, b.node, "b1", "b2")
		awaitLagging(t, a.node, "b")
		awaitLagging(t, b.node, "a")
		nw.Heal("a", "b")
		awaitSame(t, map[string]uint64{"a": 3, "b": 2}, a.node, b.node)
	})

	// a restarts while cut off, so it has heard from no member when it
	// checkpoints again: its archived log stays.
	t.Run("restart", func(t *testing.T) {
		nw := netsim.New(2, netsim.Options{})
		defer nw.Close()
		fsA := vfs.NewMem(1)
		a, b := open(t, nw, "a", fsA, "a", "b"), open(t, nw, "b", vfs.NewMem(2), "a", "b")
		defer b.close()
		connect(b, a, nw)
		nw.Partition("a", "b")
		setThenCheckpoint(t, a.node, "a1")
		a.close()
		a = open(t, nw, "a", fsA, "a", "b")
		defer a.close()
		setThenCheckpoint(t, a.node, "a2")
		setThenCheckpoint(t, b.node, "b1", "b2")
		awaitLagging(t, b.node, "a")
		connect(a, b, nw)
		nw.Heal("a", "b")
		awaitSame(t, map[string]uint64{"a": 2, "b": 2}, a.node, b.node)
	})

	// b holds c's update only inside the root it installed from c, so no
	// log of b's holds it as an entry; c is then gone for good.
	t.Run("relayed", func(t *testing.T) {
		nw := netsim.New(3, netsim.Options{})
		defer nw.Close()
		names := []string{"a", "b", "c"}
		nodes := map[string]*netNode{}
		for i, name := range names {
			nodes[name] = open(t, nw, name, vfs.NewMem(int64(i+1)), names...)
			defer nodes[name].close()
		}
		for _, from := range names {
			for _, to := range names {
				if from != to {
					connect(nodes[from], nodes[to], nw)
				}
			}
		}
		a, b, c := nodes["a"].node, nodes["b"].node, nodes["c"].node
		nw.Partition("a", "b")
		nw.Partition("a", "c")
		nw.Partition("b", "c")
		setThenCheckpoint(t, c, "c1")
		awaitLagging(t, c, "b")
		nw.Heal("b", "c")
		if !awaitSlot(t, b, "c", 1) {
			t.Fatal("b never took c's Set")
		}
		nw.Partition("b", "c")
		setThenCheckpoint(t, a, "a1")
		setThenCheckpoint(t, b, "b1")
		awaitLagging(t, a, "b")
		awaitLagging(t, b, "a")
		nw.Heal("a", "b")
		awaitSame(t, map[string]uint64{"a": 1, "b": 1, "c": 1}, a, b)
	})
}
