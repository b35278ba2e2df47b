package replica

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"smalldb/internal/nameserver"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// cluster wires n nodes together over in-memory pipes.
type cluster struct {
	nodes   []*Node
	fss     []*vfs.Mem
	servers []*rpc.Server
	clients map[string]map[string]*rpc.Client // from -> to
}

// groupOf is the all-names membership at write quorum w. The anti-entropy
// interval is an hour, so background probes never fire and a test that
// applies straight to a store really has severed propagation; a member
// marked lagging is still repaired at once.
func groupOf(w int, names ...string) GroupConfig {
	g := GroupConfig{W: w, AntiEntropyEvery: time.Hour}
	for _, name := range names {
		g.Members = append(g.Members, Member{Name: name, Addr: "pipe"})
	}
	return g
}

// makeCluster is a full mesh at W = 1: every update acks after the local
// commit and propagates behind it.
func makeCluster(t *testing.T, names ...string) *cluster {
	return makeClusterW(t, 1, names...)
}

// makeClusterW is a full mesh at write quorum w; at w = len(names) every
// member holds an update when Set returns.
func makeClusterW(t *testing.T, w int, names ...string) *cluster {
	t.Helper()
	c := &cluster{clients: make(map[string]map[string]*rpc.Client)}
	for i, name := range names {
		fs := vfs.NewMem(int64(i + 1))
		n, err := Open(Config{Name: name, FS: fs, HistoryCap: 100, GroupConfig: groupOf(w, names...)})
		if err != nil {
			t.Fatal(err)
		}
		srv := rpc.NewServer()
		if err := srv.Register("Replica", NewService(n)); err != nil {
			t.Fatal(err)
		}
		c.nodes = append(c.nodes, n)
		c.fss = append(c.fss, fs)
		c.servers = append(c.servers, srv)
	}
	for i, from := range names {
		c.clients[from] = make(map[string]*rpc.Client)
		for j, to := range names {
			if i == j {
				continue
			}
			cc, sc := net.Pipe()
			go c.servers[j].ServeConn(sc)
			client := rpc.NewClient(cc)
			if err := c.nodes[i].Connect(to, client); err != nil {
				t.Fatal(err)
			}
			c.clients[from][to] = client
		}
	}
	t.Cleanup(func() {
		for _, n := range c.nodes {
			n.Close()
		}
		for _, s := range c.servers {
			s.Close()
		}
	})
	return c
}

func TestPropagation(t *testing.T) {
	c := makeClusterW(t, 3, "alpha", "beta", "gamma")
	if err := c.nodes[0].Set("net/hosts/a", "1"); err != nil {
		t.Fatal(err)
	}
	for i, n := range c.nodes {
		v, err := n.Lookup("net/hosts/a")
		if err != nil || v != "1" {
			t.Errorf("node %d: %q, %v", i, v, err)
		}
	}
}

func TestMultiMasterConvergence(t *testing.T) {
	c := makeClusterW(t, 3, "a", "b", "c")
	// Each node updates different names concurrently-ish.
	for i := 0; i < 10; i++ {
		for j, n := range c.nodes {
			if err := n.Set(fmt.Sprintf("from%d/k%d", j, i), fmt.Sprintf("v%d-%d", j, i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i, n := range c.nodes {
		for j := 0; j < 3; j++ {
			for k := 0; k < 10; k++ {
				want := fmt.Sprintf("v%d-%d", j, k)
				if v, err := n.Lookup(fmt.Sprintf("from%d/k%d", j, k)); err != nil || v != want {
					t.Fatalf("node %d missing from%d/k%d: %q %v", i, j, k, v, err)
				}
			}
		}
	}
	// Vectors converge.
	v0, _ := c.nodes[0].Vector()
	for i := 1; i < 3; i++ {
		vi, _ := c.nodes[i].Vector()
		for k, v := range v0 {
			if vi[k] != v {
				t.Errorf("vector mismatch at node %d: %v vs %v", i, vi, v0)
			}
		}
	}
}

func TestDuplicateDeliveryIgnored(t *testing.T) {
	c := makeClusterW(t, 2, "a", "b")
	c.nodes[0].Set("x", "1")
	// Push the same entry again by hand.
	vec, _ := c.nodes[1].Vector()
	if vec["a"] != 1 {
		t.Fatalf("vector: %v", vec)
	}
	parts, _ := nameserver.SplitPath("x")
	entry := Entry{Origin: "a", Seq: 1, Inner: &nameserver.SetValue{Path: parts, Value: "1"}}
	applied, err := c.nodes[1].applyEntries([]Entry{entry})
	if err != nil || applied != 0 {
		t.Errorf("duplicate applied=%d err=%v", applied, err)
	}
}

func TestAntiEntropyCatchUp(t *testing.T) {
	c := makeCluster(t, "a", "b")
	// Sever propagation: apply directly to a's store, not via Push.
	na, nb := c.nodes[0], c.nodes[1]
	for i := 0; i < 5; i++ {
		parts, _ := nameserver.SplitPath(fmt.Sprintf("k%d", i))
		var seq uint64
		na.store.View(func(root any) error {
			seq = root.(*Root).Vector["a"] + 1
			return nil
		})
		if err := na.store.Apply(&Replicated{Origin: "a", Seq: seq, Inner: &nameserver.SetValue{Path: parts, Value: "v"}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := nb.Lookup("k0"); !errors.Is(err, nameserver.ErrNotFound) {
		t.Fatal("propagation not actually severed")
	}
	// One anti-entropy round pulls everything over.
	if err := nb.SyncWith(c.clients["b"]["a"]); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if v, err := nb.Lookup(fmt.Sprintf("k%d", i)); err != nil || v != "v" {
			t.Errorf("k%d: %q %v", i, v, err)
		}
	}
}

// TestAntiEntropyTimer: an entry applied straight to the origin's store —
// never pushed, and with no further write to reveal the gap — reaches the
// member within a few ticks of the one anti-entropy loop, and so does one
// applied after the origin was closed and reopened, when it has forgotten
// what its member had acked.
func TestAntiEntropyTimer(t *testing.T) {
	nb, err := Open(Config{Name: "b", FS: vfs.NewMem(2), HistoryCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	srvB := rpc.NewServer()
	if err := srvB.Register("Replica", NewService(nb)); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	fsA := vfs.NewMem(1)
	group := groupOf(1, "a", "b")
	group.AntiEntropyEvery = 10 * time.Millisecond
	for seq, key := range []string{"timer/key", "timer/reopened"} {
		na, err := Open(Config{Name: "a", FS: fsA, HistoryCap: 100, GroupConfig: group})
		if err != nil {
			t.Fatal(err)
		}
		if err := na.Connect("b", pipeTo(srvB)); err != nil {
			t.Fatal(err)
		}
		parts, _ := nameserver.SplitPath(key)
		if err := na.store.Apply(&Replicated{Origin: "a", Seq: uint64(seq + 1), Inner: &nameserver.SetValue{Path: parts, Value: "v"}}); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for {
			if v, err := nb.Lookup(key); err == nil && v == "v" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("anti-entropy never delivered %s", key)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := na.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHistoryTrimForcesFullSync(t *testing.T) {
	// Node a's history cap is tiny; node b falls far behind and must get
	// a full snapshot.
	fsA := vfs.NewMem(1)
	na, err := Open(Config{Name: "a", FS: fsA, HistoryCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	srvA := rpc.NewServer()
	srvA.Register("Replica", NewService(na))
	defer srvA.Close()

	fsB := vfs.NewMem(2)
	nb, err := Open(Config{Name: "b", FS: fsB, HistoryCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()

	for i := 0; i < 20; i++ {
		parts, _ := nameserver.SplitPath(fmt.Sprintf("k%d", i))
		na.store.Apply(&Replicated{Origin: "a", Seq: uint64(i + 1), Inner: &nameserver.SetValue{Path: parts, Value: "v"}})
	}

	cc, sc := net.Pipe()
	go srvA.ServeConn(sc)
	client := rpc.NewClient(cc)
	defer client.Close()

	if err := nb.SyncWith(client); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if v, err := nb.Lookup(fmt.Sprintf("k%d", i)); err != nil || v != "v" {
			t.Fatalf("k%d after full sync: %q %v", i, v, err)
		}
	}
	vec, _ := nb.Vector()
	if vec["a"] != 20 {
		t.Errorf("vector after full sync: %v", vec)
	}
}

// trimmedPeer opens node a with a history cap of 3 and 20 own-origin Sets —
// so any node behind it can only be served a snapshot — plus a server for it.
func trimmedPeer(t *testing.T) (*Node, *rpc.Server) {
	t.Helper()
	na, err := Open(Config{Name: "a", FS: vfs.NewMem(1), HistoryCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { na.Close() })
	for i := 0; i < 20; i++ {
		if err := na.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	srv := rpc.NewServer()
	if err := srv.Register("Replica", NewService(na)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return na, srv
}

// aheadNode opens lone node b with five acknowledged own-origin Sets.
func aheadNode(t *testing.T, historyCap int) *Node {
	t.Helper()
	nb, err := Open(Config{Name: "b", FS: vfs.NewMem(2), HistoryCap: historyCap})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nb.Close() })
	for i := 0; i < 5; i++ {
		if err := nb.Set(fmt.Sprintf("own/k%d", i), "mine"); err != nil {
			t.Fatal(err)
		}
	}
	return nb
}

// checkInstallKeptOwn: after installing a's snapshot, b holds a's twenty
// updates and still every one of its own, and its next Set takes seq 6.
func checkInstallKeptOwn(t *testing.T, nb *Node) {
	t.Helper()
	vec, _ := nb.Vector()
	if vec["a"] != 20 || vec["b"] != 5 {
		t.Fatalf("vector after install = %v, want a:20 b:5", vec)
	}
	for i := 0; i < 5; i++ {
		if v, err := nb.Lookup(fmt.Sprintf("own/k%d", i)); err != nil || v != "mine" {
			t.Fatalf("acknowledged own/k%d after install: %q %v", i, v, err)
		}
	}
	if v, err := nb.Lookup("k19"); err != nil || v != "v" {
		t.Fatalf("k19 after install: %q %v", v, err)
	}
	if err := nb.Set("own/next", "mine"); err != nil {
		t.Fatal(err)
	}
	if vec, _ = nb.Vector(); vec["b"] != 6 {
		t.Fatalf("next own Set took seq %d, want 6", vec["b"])
	}
}

// checkInstallRefused: b's history (cap 3) no longer reaches its own first
// updates, so the install is refused and b is exactly as it was.
func checkInstallRefused(t *testing.T, nb *Node) {
	t.Helper()
	vec, _ := nb.Vector()
	if vec["a"] != 0 || vec["b"] != 5 {
		t.Fatalf("vector after refused install = %v, want b:5 only", vec)
	}
	if v, err := nb.Lookup("own/k0"); err != nil || v != "mine" {
		t.Fatalf("own/k0 after refused install: %q %v", v, err)
	}
}

// TestPulledInstallKeepsOwnUpdates: a pull answered NeedFull must not drop
// what the puller holds beyond the snapshot.
func TestPulledInstallKeepsOwnUpdates(t *testing.T) {
	_, srvA := trimmedPeer(t)
	client := pipeTo(srvA)
	defer client.Close()

	nb := aheadNode(t, 100)
	if err := nb.SyncWith(client); err != nil {
		t.Fatal(err)
	}
	checkInstallKeptOwn(t, nb)

	short := aheadNode(t, 3)
	if err := short.SyncWith(client); !errors.Is(err, ErrInstallRegress) {
		t.Fatalf("pull into a node whose history is trimmed past its own updates: %v, want ErrInstallRegress", err)
	}
	checkInstallRefused(t, short)
}

// TestPushedInstallKeepsOwnUpdates: the same rule for a snapshot pushed at
// the member through Replica.Install.
func TestPushedInstallKeepsOwnUpdates(t *testing.T) {
	na, _ := trimmedPeer(t)
	for _, tc := range []struct {
		historyCap int
		refused    bool
	}{{100, false}, {3, true}} {
		nb := aheadNode(t, tc.historyCap)
		srvB := rpc.NewServer()
		if err := srvB.Register("Replica", NewService(nb)); err != nil {
			t.Fatal(err)
		}
		defer srvB.Close()
		client := pipeTo(srvB)
		defer client.Close()
		snap, err := na.snapshotRoot()
		if err != nil {
			t.Fatal(err)
		}
		var reply InstallReply
		err = client.Call("Replica.Install", &InstallArgs{Root: snap}, &reply)
		if tc.refused {
			if err == nil || !strings.Contains(err.Error(), ErrInstallRegress.Error()) {
				t.Fatalf("install over a trimmed history: %v, want %v", err, ErrInstallRegress)
			}
			checkInstallRefused(t, nb)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		checkInstallKeptOwn(t, nb)
	}
}

func TestHardErrorRestore(t *testing.T) {
	// The §4 scenario: node b's disk dies; rebuild from node a, losing
	// only what never propagated.
	c := makeCluster(t, "a", "b")
	na := c.nodes[0]
	for i := 0; i < 10; i++ {
		if err := na.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	// b's disk is wiped: simulate with a brand-new node directory.
	freshFS := vfs.NewMem(99)
	nb2, err := Open(Config{Name: "b", FS: freshFS, HistoryCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer nb2.Close()

	cc, sc := net.Pipe()
	go c.servers[0].ServeConn(sc)
	client := rpc.NewClient(cc)
	defer client.Close()
	if err := nb2.RestoreFromPeer(client); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if v, err := nb2.Lookup(fmt.Sprintf("k%d", i)); err != nil || v != "v" {
			t.Fatalf("k%d after restore: %q %v", i, v, err)
		}
	}
	// The restore is durable: crash and reopen.
	nb2.Close()
	freshFS.Crash()
	nb3, err := Open(Config{Name: "b", FS: freshFS, HistoryCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer nb3.Close()
	if v, err := nb3.Lookup("k5"); err != nil || v != "v" {
		t.Errorf("restore not durable: %q %v", v, err)
	}
}

func TestReplicaDurability(t *testing.T) {
	c := makeClusterW(t, 2, "a", "b")
	c.nodes[0].Set("persist/me", "1")
	// Crash and reopen node b from its own disk.
	name := c.nodes[1].Name()
	c.nodes[1].Close()
	c.fss[1].Crash()
	nb, err := Open(Config{Name: name, FS: c.fss[1], HistoryCap: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	if v, err := nb.Lookup("persist/me"); err != nil || v != "1" {
		t.Errorf("replicated update not durable: %q %v", v, err)
	}
	vec, _ := nb.Vector()
	if vec["a"] != 1 {
		t.Errorf("vector not durable: %v", vec)
	}
}

func TestSequenceGapDetected(t *testing.T) {
	c := makeCluster(t, "a", "b")
	nb := c.nodes[1]
	parts, _ := nameserver.SplitPath("gap")
	err := nb.store.Apply(&Replicated{Origin: "x", Seq: 5, Inner: &nameserver.SetValue{Path: parts, Value: "v"}})
	if !errors.Is(err, ErrSequenceGap) {
		t.Errorf("got %v", err)
	}
}

func TestConflictingNamesLastWriterWins(t *testing.T) {
	c := makeCluster(t, "a", "b")
	// Both write the same name. Lamport last-writer-wins must make both
	// nodes agree on one value once both updates have reached both.
	c.nodes[0].Set("conflict", "from-a")
	c.nodes[1].Set("conflict", "from-b")
	c.nodes[0].SyncWith(c.clients["a"]["b"])
	c.nodes[1].SyncWith(c.clients["b"]["a"])
	va, _ := c.nodes[0].Lookup("conflict")
	vb, _ := c.nodes[1].Lookup("conflict")
	if va == "" || va != vb {
		t.Fatalf("conflict did not converge: %q vs %q", va, vb)
	}
	// And the winner is stable under further rounds.
	c.nodes[0].SyncWith(c.clients["a"]["b"])
	c.nodes[1].SyncWith(c.clients["b"]["a"])
	va2, _ := c.nodes[0].Lookup("conflict")
	vb2, _ := c.nodes[1].Lookup("conflict")
	if va2 != va || vb2 != va {
		t.Errorf("winner not stable: %q -> %q/%q", va, va2, vb2)
	}
}

func TestCausalOverwriteWins(t *testing.T) {
	// A write that causally follows another (read-then-write through the
	// same node after sync) must win everywhere, regardless of origin
	// name ordering.
	c := makeCluster(t, "zz", "aa") // origin names chosen against the tiebreak
	c.nodes[0].Set("k", "first")    // zz writes
	c.nodes[1].SyncWith(c.clients["aa"]["zz"])
	c.nodes[1].Set("k", "second") // aa overwrites after seeing zz's write
	c.nodes[0].SyncWith(c.clients["zz"]["aa"])
	for i, n := range c.nodes {
		if v, _ := n.Lookup("k"); v != "second" {
			t.Errorf("node %d: causal overwrite lost: %q", i, v)
		}
	}
}
