package replica

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/netsim"
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
	return makeGroupOf(t, Config{GroupConfig: cfg})
}

// makeGroupOf opens the primary from primary, naming it after the group's
// first member, and every other member behind an rpc server. Node i runs on
// disks[i] when disks are given, on a vfs.Mem of its own otherwise.
// Everything the primary's goroutines read is set before Open starts them.
// The members and their servers share the primary's tracer.
func makeGroupOf(t testing.TB, primary Config, disks ...vfs.FS) *groupCluster {
	t.Helper()
	gc := &groupCluster{}
	for i, m := range primary.Members {
		nc := Config{Name: m.Name, Tracer: primary.Tracer}
		if i == 0 {
			nc = primary
			nc.Name = m.Name
		}
		nc.FS = vfs.NewMem(int64(i + 1))
		if disks != nil {
			nc.FS = disks[i]
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
		if primary.Tracer != nil {
			srv.Instrument(obs.NewRegistry(), primary.Tracer)
		}
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
	cfg := groupOf(0, "a", "b", "c")
	cfg.QuorumTimeout = 300 * time.Millisecond
	cfg.AntiEntropyEvery = 10 * time.Millisecond
	policy := rpc.RetryPolicy{MaxAttempts: 2, Budget: 100 * time.Millisecond, PerTry: 50 * time.Millisecond}
	gc := makeGroupOf(t, Config{GroupConfig: cfg, Policy: policy})
	// The first Set reconciles with every member while they still answer.
	if err := gc.primary.Set("first", "v"); err != nil {
		t.Fatal(err)
	}
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

// TestReconcileRefusesWhileMemberDown: a restarted W = 2 primary that cannot
// reach one member refuses its first Set with ErrUnreconciled and logs
// nothing; a later Set is refused at once rather than after another pull's
// retry budget. Once the member answers again, the anti-entropy loop
// reconciles by itself and the next Set succeeds.
func TestReconcileRefusesWhileMemberDown(t *testing.T) {
	nw := netsim.New(1, netsim.Options{})
	defer nw.Close()
	b := serveNet(t, nw, Config{Name: "b", FS: vfs.NewMem(2)})
	c := serveNet(t, nw, Config{Name: "c", FS: vfs.NewMem(3)})
	defer b.close()
	defer c.close()
	fs := vfs.NewMem(1)
	group := groupOf(2, "a", "b", "c")
	group.AntiEntropyEvery = 10 * time.Millisecond
	primary := func() *netNode {
		a := serveNet(t, nw, Config{Name: "a", FS: fs, Policy: fastPolicy, GroupConfig: group})
		connect(a, b, nw)
		connect(a, c, nw)
		return a
	}
	a := primary()
	if err := a.node.Set("k0", "v"); err != nil {
		t.Fatal(err)
	}
	a.close()
	// c's replies vanish, so every pull to it runs out its retry budget.
	nw.PartitionOneWay("c", "a")
	a = primary()
	defer a.close()
	before := a.node.Store().AppliedSeq()
	if err := a.node.Set("k1", "v"); !errors.Is(err, ErrUnreconciled) {
		t.Fatalf("Set with member c down = %v, want ErrUnreconciled", err)
	}
	start := time.Now()
	if err := a.node.Set("k1", "v"); !errors.Is(err, ErrUnreconciled) {
		t.Fatalf("second Set with member c down = %v, want ErrUnreconciled", err)
	}
	if d := time.Since(start); d >= fastPolicy.Budget/2 {
		t.Errorf("a Set refused after a failed round took %v, want at once", d)
	}
	if got := a.node.Store().AppliedSeq(); got != before {
		t.Fatalf("refused Sets moved AppliedSeq %d -> %d", before, got)
	}
	nw.Heal("a", "c")
	deadline := time.Now().Add(5 * time.Second)
	for {
		a.node.gmu.Lock()
		owed := len(a.node.owed)
		a.node.gmu.Unlock()
		if owed == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the anti-entropy loop never reconciled with c after the heal")
		}
		time.Sleep(time.Millisecond)
	}
	if err := a.node.Set("k1", "v"); err != nil {
		t.Fatalf("Set once c answers: %v", err)
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
	n, err := Open(Config{Name: "a", FS: vfs.NewMem(1), Policy: policy, GroupConfig: groupOf(1, "a", "b")})
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

// TestEagerMemberDies: at N = 3, W = 2 the first member connected, b, is
// the one eager member. Cut off mid-stream, it costs the next Set only c's
// lazy push — far under the quorum timeout — then goes lagging, and c is
// eager from then on.
func TestEagerMemberDies(t *testing.T) {
	nw := netsim.New(1, netsim.Options{})
	defer nw.Close()
	b := serveNet(t, nw, Config{Name: "b", FS: vfs.NewMem(2)})
	c := serveNet(t, nw, Config{Name: "c", FS: vfs.NewMem(3)})
	defer b.close()
	defer c.close()
	group := groupOf(2, "a", "b", "c")
	group.QuorumTimeout = 2 * time.Second
	a := serveNet(t, nw, Config{Name: "a", FS: vfs.NewMem(1), Policy: fastPolicy, GroupConfig: group})
	defer a.close()
	connect(a, b, nw)
	connect(a, c, nw)
	eager := func(name string) bool {
		a.node.gmu.Lock()
		defer a.node.gmu.Unlock()
		for _, ms := range a.node.members {
			if ms.name == name {
				return a.node.eager(ms)
			}
		}
		return false
	}
	for i := 0; i < 5; i++ {
		if err := a.node.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if !eager("b") || eager("c") {
		t.Fatalf("eager b=%v c=%v, want only b", eager("b"), eager("c"))
	}
	nw.Partition("a", "b")
	start := time.Now()
	if err := a.node.Set("cut", "v"); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d >= group.QuorumTimeout/10 {
		t.Fatalf("the Set after the eager member was cut took %v, want under %v", d, group.QuorumTimeout/10)
	}
	if v, err := c.node.Lookup("cut"); err != nil || v != "v" {
		t.Fatalf("c lacks the acked Set: %q %v", v, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !a.node.Lagging("b") {
		if time.Now().After(deadline) {
			t.Fatal("the cut eager member never went lagging")
		}
		time.Sleep(time.Millisecond)
	}
	if !eager("c") {
		t.Fatal("c was not promoted to eager once b went lagging")
	}
	if err := a.node.Set("after", "v"); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentCommitters: goroutines of Sets at the primary feed every
// member's stream in log order, so no member sees a gap or is marked
// lagging, and the primary's log holds its seqs in order. At N = 3, W = 2 on
// disks that take 1ms a sync the committers share the primary's syncs, as a
// lone store's do: it flushes fewer times than it commits Sets.
func TestConcurrentCommitters(t *testing.T) {
	for _, tc := range []struct {
		n, w, goroutines, sets int
		modeled                bool
	}{{2, 1, 8, 50, false}, {3, 2, 8, 40, true}} {
		name := fmt.Sprintf("N=%d/W=%d", tc.n, tc.w)
		if tc.modeled {
			name += "/sync=1ms"
		}
		t.Run(name, func(t *testing.T) {
			var disks []vfs.FS
			for i := 0; tc.modeled && i < tc.n; i++ {
				disks = append(disks, vfs.NewMetered(vfs.NewMem(int64(i+1)), vfs.Profile{PerOpWrite: time.Millisecond}, 1))
			}
			reg := obs.NewRegistry()
			gc := makeGroupOf(t, Config{Obs: reg, GroupConfig: groupOf(tc.w, []string{"a", "b", "c"}[:tc.n]...)}, disks...)
			flushes := reg.Counter("wal_flushes")
			before := flushes.Value()
			errs := make(chan error, tc.goroutines)
			var wg sync.WaitGroup
			for g := 0; g < tc.goroutines; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < tc.sets; i++ {
						if err := gc.primary.Set(fmt.Sprintf("g%d/k%d", g, i), "v"); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			total := tc.goroutines * tc.sets
			f := flushes.Value() - before
			t.Logf("%d Sets, %d flushes at the primary", total, f)
			if tc.modeled && f >= uint64(total) {
				t.Errorf("the primary flushed its log %d times for %d concurrent Sets: its committers never shared a sync", f, total)
			}
			for _, m := range gc.members {
				if !awaitSlot(t, m, "a", uint64(total)) {
					t.Fatalf("%s never reached seq %d", m.Name(), total)
				}
				if gc.primary.Lagging(m.Name()) {
					t.Fatalf("%s is lagging", m.Name())
				}
			}
			pushErrs, laggards := reg.Counter("replica_group_push_errors").Value(), reg.Gauge("replica_group_laggards").Value()
			if pushErrs != 0 || laggards != 0 {
				t.Fatalf("push errors %d, laggards %d: want none", pushErrs, laggards)
			}
			var seqs []uint64
			if err := gc.primary.Store().History(true, func(_ uint64, u core.Update) error {
				if r, ok := u.(*Replicated); ok && r.Origin == "a" {
					seqs = append(seqs, r.Seq)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			for i, seq := range seqs {
				if seq != uint64(i+1) {
					t.Fatalf("log entry %d of a's stream holds seq %d: the log is out of seq order", i, seq)
				}
			}
			if len(seqs) != total {
				t.Fatalf("the log holds %d of a's updates, want %d", len(seqs), total)
			}
		})
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
	// and catchupFor sorts it by (origin, seq), so the last entry's slot
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
	if err := svcA.Push(&Catchup{Entries: entries}, &pr, obs.SpanContext{}); err != nil {
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
	// Commit at a's store without pushing, so b really is behind the floor.
	if err := c.nodes[0].Store().Apply(&Replicated{Origin: "a", Inner: &nameserver.SetValue{Path: []string{"x"}, Value: "1"}, local: true}); err != nil {
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

// BenchmarkReplicatedSet prices one replicated Set in process, members
// behind net.Pipe. N=2/W=1 is the pair (ack after the local sync, the push
// runs behind it), N=2/W=2 waits for the one member, N=3/W=2 is nsbench's
// quorum3 shape. Each shape runs with every node on vfs.Mem, then with
// every node on a disk arm of its own that takes 1ms a sync
// ("sync=1ms"): there a W=2 Set costs about one modeled sync, since the
// eager member's sync runs beside the primary's. The quorum3 shape runs
// once more with four concurrent setters ("setters=4"), whose commits share
// the primary's syncs. pushes/op counts the primary's stream pushes: the
// lazy members' pushes are coalesced. syncs/op counts the primary's log
// flushes. The anti-entropy interval is the default: a probe scans the
// history, and the tests' 10ms would bill that to the Set.
func BenchmarkReplicatedSet(b *testing.B) {
	for _, tc := range []struct {
		n, w    int
		modeled bool
		setters int
	}{{2, 1, false, 1}, {2, 2, false, 1}, {3, 2, false, 1}, {2, 1, true, 1}, {2, 2, true, 1}, {3, 2, true, 1}, {3, 2, true, 4}} {
		name := fmt.Sprintf("N=%d/W=%d", tc.n, tc.w)
		if tc.modeled {
			name += "/sync=1ms"
		}
		if tc.setters > 1 {
			name += fmt.Sprintf("/setters=%d", tc.setters)
		}
		b.Run(name, func(b *testing.B) {
			cfg := groupOf(tc.w, []string{"a", "b", "c"}[:tc.n]...)
			cfg.AntiEntropyEvery = 0
			var disks []vfs.FS
			for i := 0; tc.modeled && i < tc.n; i++ {
				disks = append(disks, vfs.NewMetered(vfs.NewMem(int64(i+1)), vfs.Profile{PerOpWrite: time.Millisecond}, 1))
			}
			reg := obs.NewRegistry()
			gc := makeGroupOf(b, Config{Obs: reg, GroupConfig: cfg}, disks...)
			pushes, flushes := reg.Counter("replica_group_pushes"), reg.Counter("wal_flushes")
			b.ResetTimer()
			pushed, flushed := pushes.Value(), flushes.Value()
			var next atomic.Int64
			var wg sync.WaitGroup
			for range tc.setters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := next.Add(1) - 1; i < int64(b.N); i = next.Add(1) - 1 {
						if err := gc.primary.Set(fmt.Sprintf("bench/k%d", i%1000), "v"); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.ReportMetric(float64(pushes.Value()-pushed)/float64(b.N), "pushes/op")
			b.ReportMetric(float64(flushes.Value()-flushed)/float64(b.N), "syncs/op")
		})
	}
}
