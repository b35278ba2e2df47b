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
	return serveNet(t, nw, Config{Name: cfgName, FS: fs, HistoryCap: 1000, Policy: fastPolicy, GroupConfig: groupOf(1, "a", "b")})
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
