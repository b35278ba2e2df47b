package lintest

import (
	"net"
	"sync/atomic"
	"testing"
	"time"

	"smalldb/internal/nameserver"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// makeBoundedGroup wires a quorum-commit group — primary plus remote
// members over pipes — and returns every node (primary first) as a
// bounded-read member.
func makeBoundedGroup(t *testing.T, w int, names ...string) []*replica.Node {
	t.Helper()
	cfg := replica.GroupConfig{
		W:                w,
		QuorumTimeout:    10 * time.Second,
		AntiEntropyEvery: 5 * time.Millisecond,
	}
	for _, name := range names {
		cfg.Members = append(cfg.Members, replica.Member{Name: name, Addr: "pipe"})
	}
	nodes := make([]*replica.Node, 0, len(names))
	var servers []*rpc.Server
	for i, name := range names {
		nc := replica.Config{Name: name, FS: vfs.NewMem(int64(i + 1)), HistoryCap: 4096}
		if i == 0 {
			nc.GroupConfig = cfg
		}
		n, err := replica.Open(nc)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, n)
		if i == 0 {
			continue
		}
		srv := rpc.NewServer()
		if err := srv.Register("Replica", replica.NewService(n)); err != nil {
			t.Fatal(err)
		}
		servers = append(servers, srv)
	}
	for i, n := range nodes[1:] {
		cc, sc := net.Pipe()
		go servers[i].ServeConn(sc)
		if err := nodes[0].Connect(n.Name(), rpc.NewClient(cc)); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
		for _, s := range servers {
			s.Close()
		}
	})
	return nodes
}

// TestBoundedStalenessGroup is the satellite contract run: 32 readers
// rotating over all 5 members of a W=3 group, every read validated against
// the frontier witness with per-reader monotonic floors, zero violations.
func TestBoundedStalenessGroup(t *testing.T) {
	nodes := makeBoundedGroup(t, 3, "a", "b", "c", "d", "e")
	members := make([]BoundedMember, len(nodes))
	for i, n := range nodes {
		members[i] = n
	}
	ops := 400
	if testing.Short() {
		ops = 120
	}
	stats, err := RunBounded(nodes[0].Set, members, Config{Readers: 32, Ops: ops, Prefix: "bs"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Ops != uint64(ops) {
		t.Fatalf("committed %d ops, want %d", stats.Ops, ops)
	}
	if stats.Reads < uint64(32) {
		t.Fatalf("only %d reads validated", stats.Reads)
	}
	t.Logf("ops=%d reads=%d redirects=%d stale=%d maxLag=%d",
		stats.Ops, stats.Reads, stats.Redirects, stats.Stale, stats.MaxLag)
}

// TestBoundedStalenessLaggard forces a member to fall behind mid-run so
// readers holding a higher floor must get ErrStale from it and redirect —
// the failover path — while anti-entropy repairs it underneath them.
func TestBoundedStalenessLaggard(t *testing.T) {
	nodes := makeBoundedGroup(t, 2, "a", "b", "c")
	members := make([]BoundedMember, len(nodes))
	for i, n := range nodes {
		members[i] = n
	}
	kicked := false
	write := func(name, value string) error {
		if err := nodes[0].Set(name, value); err != nil {
			return err
		}
		if !kicked {
			kicked = true
			nodes[0].MarkLagging("c")
		}
		return nil
	}
	stats, err := RunBounded(write, members, Config{Readers: 8, Ops: 200, Prefix: "bsl"})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("ops=%d reads=%d redirects=%d stale=%d maxLag=%d",
		stats.Ops, stats.Reads, stats.Redirects, stats.Stale, stats.MaxLag)
}

// lyingMember answers every read with an empty tree while claiming a
// nonzero durable frontier — exactly the incoherence the frontier witness
// must reject.
type lyingMember struct {
	calls atomic.Uint64
}

func (m *lyingMember) Name() string { return "liar" }

func (m *lyingMember) ReadAt(name string, minSeq uint64) (string, uint64, error) {
	// First call is RunBounded's base probe; answer honestly so the run
	// starts, then claim frontier 1 while holding nothing.
	if m.calls.Add(1) == 1 {
		return "", 0, nameserver.ErrNotFound
	}
	return "", 1, nameserver.ErrNotFound
}

// TestBoundedCatchesFrontierLie proves the checker has teeth: a member
// claiming frontier 1 while missing op 1's key must fail the run (as a
// frontier-witness violation, or as a read-from-the-future if the reader
// beats the writer to it).
func TestBoundedCatchesFrontierLie(t *testing.T) {
	write := func(name, value string) error { return nil }
	_, err := RunBounded(write, []BoundedMember{&lyingMember{}}, Config{Readers: 8, Ops: 16, Prefix: "bsx"})
	if err == nil {
		t.Fatal("a member serving an empty tree at frontier 1 passed the bounded-staleness check")
	}
	t.Logf("caught: %v", err)
}
