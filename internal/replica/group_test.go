package replica

import (
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// groupCluster wires a primary's Group to N-1 member nodes over pipes.
type groupCluster struct {
	group   *Group
	primary *Node
	members []*Node // remote members only
	servers []*rpc.Server
}

func makeGroup(t *testing.T, w int, names ...string) *groupCluster {
	t.Helper()
	gc := &groupCluster{}
	cfg := GroupConfig{
		Self:             names[0],
		W:                w,
		QuorumTimeout:    5 * time.Second,
		AntiEntropyEvery: 10 * time.Millisecond,
	}
	for _, name := range names {
		cfg.Members = append(cfg.Members, Member{Name: name, Addr: "pipe"})
	}
	for i, name := range names {
		fs := vfs.NewMem(int64(i + 1))
		n, err := Open(Config{Name: name, FS: fs, HistoryCap: 100})
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
	g, err := NewGroup(gc.primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	gc.group = g
	for i, m := range gc.members {
		cc, sc := net.Pipe()
		go gc.servers[i].ServeConn(sc)
		if err := g.Connect(m.Name(), rpc.NewClient(cc)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		g.Close()
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

func TestGroupQuorumCommitMajority(t *testing.T) {
	gc := makeGroup(t, 0, "a", "b", "c", "d", "e") // W defaults to 3
	if got := gc.group.W(); got != 3 {
		t.Fatalf("W = %d, want majority 3", got)
	}
	for i := 0; i < 20; i++ {
		if err := gc.group.Set(fmt.Sprintf("svc/k%d", i), fmt.Sprintf("v%d", i)); err != nil {
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
	acked := gc.group.Acked()
	if acked["a"] != 20 {
		t.Fatalf("primary commitSeq = %d, want 20 (%v)", acked["a"], acked)
	}
}

func TestGroupQuorumOneAndAll(t *testing.T) {
	// W=1: ack on local commit alone.
	gc := makeGroup(t, 1, "a", "b", "c")
	if err := gc.group.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	// W=N: ack only when every member holds the update.
	gcAll := makeGroup(t, 3, "a", "b", "c")
	if err := gcAll.group.Set("k", "v"); err != nil {
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
	gc.group.quorumTimeout = 300 * time.Millisecond
	gc.group.cfg.PushPolicy = rpc.RetryPolicy{MaxAttempts: 2, Budget: 100 * time.Millisecond, PerTry: 50 * time.Millisecond}
	gc.group.cfg.SyncPolicy = gc.group.cfg.PushPolicy
	for _, s := range gc.servers {
		s.Close() // every remote member goes dark; W=2 needs one of them
	}
	err := gc.group.Set("k", "v")
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
	if err := gc.group.Set("k0", "v0"); err != nil {
		t.Fatal(err)
	}
	// Force c onto the anti-entropy path, then keep committing: pushes
	// skip c, quorum holds via b, and background repair must bring c back.
	gc.group.MarkLagging("c")
	for i := 1; i <= 10; i++ {
		if err := gc.group.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
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
		gc.group.mu.Lock()
		lagging := gc.group.members[1].lagging
		gc.group.mu.Unlock()
		if caughtUp && !lagging {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("laggard c not repaired: caught up %v, still marked lagging %v, acked=%v", caughtUp, lagging, gc.group.Acked())
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
	if err := gc.group.Set("k", "v"); err != nil {
		t.Fatal(err)
	}
	ms := gc.group.members[0]
	repairedTo, err := gc.group.repairRound(ms)
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
		if err := gc.group.Set(fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)); err != nil {
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
	if len(cfg.Members) != 3 || cfg.W != 2 || cfg.Self != "a" {
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
	if err := (&GroupConfig{}).Validate(); !errors.Is(err, ErrNoMembers) {
		t.Errorf("empty: %v", err)
	}
	cfg := GroupConfig{Self: "x", Members: []Member{{Name: "a", Addr: "1"}}}
	if err := cfg.Validate(); !errors.Is(err, ErrSelfNotMember) {
		t.Errorf("self: %v", err)
	}
}
