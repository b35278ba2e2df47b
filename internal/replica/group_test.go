package replica

import (
	"errors"
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// groupCluster wires a primary to N-1 member nodes over pipes.
type groupCluster struct {
	primary *Node
	members []*Node // remote members only
	servers []*rpc.Server
}

func makeGroup(t testing.TB, w int, names ...string) *groupCluster {
	t.Helper()
	cfg := groupOf(w, names...)
	cfg.QuorumTimeout = 5 * time.Second
	cfg.AntiEntropyEvery = 10 * time.Millisecond
	return makeGroupOf(t, cfg)
}

func makeGroupOf(t testing.TB, cfg GroupConfig) *groupCluster {
	t.Helper()
	gc := &groupCluster{}
	for i, m := range cfg.Members {
		name := m.Name
		nc := Config{Name: name, FS: vfs.NewMem(int64(i + 1))}
		if i == 0 {
			nc.GroupConfig = cfg
		}
		n, err := Open(nc)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			gc.primary = n
			continue
		}
		srv := rpc.NewServer()
		if err := srv.Register("Replica", NewService(n)); err != nil {
			t.Fatal(err)
		}
		gc.members = append(gc.members, n)
		gc.servers = append(gc.servers, srv)
	}
	for i, m := range gc.members {
		if err := gc.primary.Connect(m.Name(), pipeTo(gc.servers[i])); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		gc.primary.Close()
		for _, m := range gc.members {
			m.Close()
		}
		for _, s := range gc.servers {
			s.Close()
		}
	})
	return gc
}

// pipeTo returns a client on a fresh in-memory connection to srv.
func pipeTo(srv *rpc.Server) *rpc.Client {
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	return rpc.NewClient(cc)
}

func TestGroupQuorumCommitMajority(t *testing.T) {
	gc := makeGroup(t, 0, "a", "b", "c", "d", "e") // W defaults to 3
	if got := gc.primary.W(); got != 3 {
		t.Fatalf("W = %d, want majority 3", got)
	}
	for i := 0; i < 20; i++ {
		if err := gc.primary.Set(fmt.Sprintf("svc/k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	// Quorum acked every update; with healthy streams all members converge.
	deadline := time.Now().Add(5 * time.Second)
	for _, m := range gc.members {
		for {
			v, err := m.Lookup("svc/k19")
			if err == nil && v == "v19" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("member %s never converged: %q %v", m.Name(), v, err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	acked := gc.primary.Acked()
	if acked["a"] != 20 {
		t.Fatalf("primary commitSeq = %d, want 20 (%v)", acked["a"], acked)
	}
}

func TestGroupQuorumOneAndAll(t *testing.T) {
	// W=1: ack on local commit alone.
	gc := makeGroup(t, 1, "a", "b", "c")
	if err := gc.primary.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	// W=N: ack only when every member holds the update.
	gcAll := makeGroup(t, 3, "a", "b", "c")
	if err := gcAll.primary.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	for _, m := range gcAll.members {
		if v, err := m.Lookup("k"); err != nil || v != "v" {
			t.Fatalf("W=N acked before member %s applied: %q %v", m.Name(), v, err)
		}
	}
}

func TestGroupQuorumUnreachable(t *testing.T) {
	gc := makeGroup(t, 0, "a", "b", "c")
	gc.primary.group.QuorumTimeout = 300 * time.Millisecond
	gc.primary.pushPolicy = rpc.RetryPolicy{MaxAttempts: 2, Budget: 100 * time.Millisecond, PerTry: 50 * time.Millisecond}
	gc.primary.syncPolicy = gc.primary.pushPolicy
	for _, s := range gc.servers {
		s.Close() // every remote member goes dark; W=2 needs one of them
	}
	err := gc.primary.Set("k", "v")
	if !errors.Is(err, ErrQuorumUnreachable) {
		t.Fatalf("err = %v, want ErrQuorumUnreachable", err)
	}
	// The update still committed locally and survives for anti-entropy.
	if v, lerr := gc.primary.Lookup("k"); lerr != nil || v != "v" {
		t.Fatalf("local commit lost: %q %v", v, lerr)
	}
}

func TestGroupLaggardRepair(t *testing.T) {
	gc := makeGroup(t, 2, "a", "b", "c")
	if err := gc.primary.Set("k0", "v0"); err != nil {
		t.Fatal(err)
	}
	// Force c onto the anti-entropy path, then keep committing: pushes
	// skip c, quorum holds via b, and background repair must bring c back.
	gc.primary.MarkLagging("c")
	for i := 1; i <= 10; i++ {
		if err := gc.primary.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatalf("set %d: %v", i, err)
		}
	}
	// The repair loop clears the lagging mark only after the round that
	// delivered the data has returned, so both are awaited under the one
	// deadline: the member's data first, then the primary's mark.
	deadline := time.Now().Add(5 * time.Second)
	for {
		v, err := gc.members[1].Lookup("k10")
		caughtUp := err == nil && v == "v10"
		gc.primary.gmu.Lock()
		lagging := gc.primary.members[1].lagging
		gc.primary.gmu.Unlock()
		if caughtUp && !lagging {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("laggard c not repaired: caught up %v, still marked lagging %v, acked=%v", caughtUp, lagging, gc.primary.Acked())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestApplyDoesNotWaitForDeadMember: at W = 1 the push runs behind the ack,
// so an unreachable member costs Apply nothing — not the push budget, which
// here is long enough that spending any real share of it fails the test.
func TestApplyDoesNotWaitForDeadMember(t *testing.T) {
	const budget = 30 * time.Second
	policy := rpc.RetryPolicy{Budget: budget}
	n, err := Open(Config{Name: "a", FS: vfs.NewMem(1), PushPolicy: policy, SyncPolicy: policy, GroupConfig: groupOf(1, "a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	down := rpc.NewClientDialer(func() (io.ReadWriteCloser, error) { return nil, errors.New("connection refused") })
	if err := n.Connect("b", down); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := n.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > budget/10 {
		t.Fatalf("three W=1 Sets and a Close took %v against a dead member (push budget %v)", took, budget)
	}
}

// TestStreamOverflowRepair: a member that stops draining its stream
// overflows it, is marked lagging without blocking the commit path, and is
// brought back by repair once it answers again.
func TestStreamOverflowRepair(t *testing.T) {
	nb, err := Open(Config{Name: "b", FS: vfs.NewMem(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer nb.Close()
	srvB := rpc.NewServer()
	if err := srvB.Register("Replica", NewService(nb)); err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	na, err := Open(Config{Name: "a", FS: vfs.NewMem(1), GroupConfig: groupOf(1, "a", "b")})
	if err != nil {
		t.Fatal(err)
	}
	defer na.Close()
	na.queueDepth = 1
	// Nobody serves the pipe's far end yet: the first push blocks in its
	// write, the second batch fills the stream, the third overflows it.
	cc, sc := net.Pipe()
	if err := na.Connect("b", rpc.NewClient(cc)); err != nil {
		t.Fatal(err)
	}
	const sets = 8
	for i := 0; i < sets; i++ {
		if err := na.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	na.gmu.Lock()
	lagging := na.members[0].lagging
	na.gmu.Unlock()
	if !lagging {
		t.Fatalf("%d Sets into a stream of depth 1 that nobody drains left the member unmarked", sets)
	}
	go srvB.ServeConn(sc)
	deadline := time.Now().Add(5 * time.Second)
	for {
		vec, _ := nb.Vector()
		na.gmu.Lock()
		lagging = na.members[0].lagging
		na.gmu.Unlock()
		if vec["a"] == sets && !lagging {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("overflowed member not repaired: vector %v, lagging %v", vec, lagging)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestRepairRoundMultiOriginAck(t *testing.T) {
	// Any member may originate writes, so a repair batch can mix origins —
	// and missingFrom sorts it by (origin, seq), so the last entry's slot
	// may belong to a foreign origin numerically ahead of ours. The round
	// must report the member's slot for OUR origin, not the last entry's:
	// an inflated ack would let awaitQuorum count the member for local
	// seqs it never received.
	gc := makeGroup(t, 2, "a", "b")
	svcA := NewService(gc.primary)
	var entries []Entry
	for i := 1; i <= 5; i++ {
		parts, _ := nameserver.SplitPath(fmt.Sprintf("z/k%d", i))
		entries = append(entries, Entry{Origin: "z", Seq: uint64(i), Stamp: uint64(i), Inner: &nameserver.SetValue{Path: parts, Value: "v"}})
	}
	var pr PushReply
	if err := svcA.Push(&PushArgs{Entries: entries}, &pr, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	// W=2: Set returns only once b holds it, so b's slot for a is exactly
	// 1 while it still lacks every z entry.
	if err := gc.primary.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	ms := gc.primary.members[0]
	repairedTo, err := gc.primary.repairRound(ms)
	if err != nil {
		t.Fatal(err)
	}
	if repairedTo != 1 {
		t.Fatalf("repairedTo = %d, want 1 (member b's slot for origin a, not origin z's %d)", repairedTo, 5)
	}
	vec, err := gc.members[0].Vector()
	if err != nil || vec["z"] != 5 || vec["a"] != 1 {
		t.Fatalf("member vector after repair = %v, %v; want z=5 a=1", vec, err)
	}
}

func TestGroupBoundedStalenessRead(t *testing.T) {
	gc := makeGroup(t, 2, "a", "b", "c")
	for i := 0; i < 5; i++ {
		if err := gc.primary.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	frontier, err := gc.primary.Frontier()
	if err != nil || frontier != 5 {
		t.Fatalf("primary frontier = %d, %v; want 5", frontier, err)
	}
	// A member read at the primary's frontier must either be fresh enough
	// or fail ErrStale — never silently answer from an older view.
	for _, m := range gc.members {
		v, f, rerr := m.ReadAt("k4", frontier)
		if rerr != nil {
			if !IsStale(rerr) {
				t.Fatalf("member %s: %v", m.Name(), rerr)
			}
			if f >= frontier {
				t.Fatalf("member %s stale at frontier %d >= floor %d", m.Name(), f, frontier)
			}
			continue
		}
		if v != "v4" || f < frontier {
			t.Fatalf("member %s: %q at frontier %d, want v4 at >= %d", m.Name(), v, f, frontier)
		}
	}
	// An impossible floor is always stale.
	if _, _, rerr := gc.members[0].ReadAt("k4", frontier+100); !IsStale(rerr) {
		t.Fatalf("read above the frontier returned %v, want ErrStale", rerr)
	}
}

func TestServiceReadCatchUp(t *testing.T) {
	// A member behind the floor catches itself up from its peer inside
	// Service.Read rather than failing straight away.
	c := makeCluster(t, "a", "b")
	// Commit at a without pushing, so b really is behind the floor.
	parts := []string{"x"}
	if _, err := c.nodes[0].commitLocal([]core.Update{&nameserver.SetValue{Path: parts, Value: "1"}}, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.nodes[1].ReadAt("x", 1); !IsStale(err) {
		t.Fatalf("b should start stale, got %v", err)
	}
	svcB := NewService(c.nodes[1])
	var reply ReadReply
	if err := svcB.Read(&ReadArgs{Name: "x", MinSeq: 1}, &reply); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if reply.Value != "1" || reply.Frontier < 1 {
		t.Fatalf("reply = %+v", reply)
	}
	if reply.Stale {
		t.Fatalf("caught-up reply marked stale: %+v", reply)
	}
}

func TestServiceReadStaleReply(t *testing.T) {
	// A member that cannot reach the floor even after catch-up answers
	// with the structured Stale flag and its observed frontier — not a
	// wire error, which would arrive as an unmatchable string.
	c := makeCluster(t, "a", "b")
	if err := c.nodes[0].Set("x", "1"); err != nil {
		t.Fatal(err)
	}
	svcB := NewService(c.nodes[1])
	var reply ReadReply
	if err := svcB.Read(&ReadArgs{Name: "x", MinSeq: 100}, &reply); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !reply.Stale || reply.Frontier >= 100 || reply.Node != "b" || reply.Value != "" {
		t.Fatalf("reply = %+v, want Stale with frontier < 100 from b and no value", reply)
	}
}

func TestParseGroupSpec(t *testing.T) {
	cfg, err := ParseGroupSpec("a", "b=host1:1, c=host2:2", 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(cfg.Members) != 3 || cfg.W != 2 || cfg.Members[0].Name != "a" {
		t.Fatalf("cfg = %+v", cfg)
	}
	if cfg.Members[2] != (Member{Name: "c", Addr: "host2:2"}) {
		t.Fatalf("member = %+v", cfg.Members[2])
	}
	// Solo group: valid, W=1.
	if cfg, err = ParseGroupSpec("a", "", 0); err != nil || cfg.W != 1 {
		t.Fatalf("solo: %+v %v", cfg, err)
	}

	cases := []struct {
		self, peers string
		w           int
		want        error
	}{
		{"", "b=x", 0, ErrBadMember},
		{"a", "b", 0, ErrBadMember},
		{"a", "=x", 0, ErrBadMember},
		{"a", "b=", 0, ErrBadMember},
		{"a", "b=x,", 0, ErrBadMember},
		{"a", "a=x", 0, ErrDuplicateMember},
		{"a", "b=x,b=y", 0, ErrDuplicateMember},
		{"a", "b=x", 3, ErrBadQuorum},
		{"a", "b=x", -1, ErrBadQuorum},
	}
	for _, tc := range cases {
		if _, err := ParseGroupSpec(tc.self, tc.peers, tc.w); !errors.Is(err, tc.want) {
			t.Errorf("ParseGroupSpec(%q, %q, %d) = %v, want %v", tc.self, tc.peers, tc.w, err, tc.want)
		}
	}
}

func TestGroupConfigValidate(t *testing.T) {
	if err := (&GroupConfig{}).Validate("a"); !errors.Is(err, ErrNoMembers) {
		t.Errorf("empty: %v", err)
	}
	cfg := GroupConfig{Members: []Member{{Name: "a", Addr: "1"}}}
	if err := cfg.Validate("x"); !errors.Is(err, ErrSelfNotMember) {
		t.Errorf("self: %v", err)
	}
}

// BenchmarkReplicatedSet prices one replicated Set in process: every node on
// vfs.Mem, members behind net.Pipe. N=2/W=1 is the pair (ack after the local
// sync, the push runs behind it), N=2/W=2 waits for the one member, N=3/W=2
// is nsbench's quorum3 shape. The anti-entropy interval is the default: a
// probe scans the history, and the tests' 10ms would bill that to the Set.
func BenchmarkReplicatedSet(b *testing.B) {
	for _, tc := range []struct{ n, w int }{{2, 1}, {2, 2}, {3, 2}} {
		b.Run(fmt.Sprintf("N=%d/W=%d", tc.n, tc.w), func(b *testing.B) {
			cfg := groupOf(tc.w, []string{"a", "b", "c"}[:tc.n]...)
			cfg.AntiEntropyEvery = 0
			gc := makeGroupOf(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := gc.primary.Set(fmt.Sprintf("bench/k%d", i%1000), "v"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
