package replica

import (
	"net"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// serveNS wires svc behind the rpc layer as "NS" over an in-memory pipe.
func serveNS(t *testing.T, svc any) *rpc.Client {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.Register("NS", svc); err != nil {
		t.Fatal(err)
	}
	cc, sc := net.Pipe()
	go srv.ServeConn(sc)
	client := rpc.NewClient(cc)
	t.Cleanup(func() {
		client.Close()
		srv.Close()
	})
	return client
}

// TestNSServiceMatchesNameserver: a client cannot tell a replicated daemon
// from an unreplicated one. The NS service serves a Node as it serves a
// nameserver.Server: the same names go in through NS.Set, and every
// enquiry — hit, miss, valueless interior name — answers identically, error
// text included.
func TestNSServiceMatchesNameserver(t *testing.T) {
	plain, err := nameserver.Open(nameserver.Config{FS: vfs.NewMem(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	node, err := Open(Config{Name: "a", FS: vfs.NewMem(2)})
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	clients := map[string]*rpc.Client{
		"nameserver": serveNS(t, nameserver.NewRPCService(plain)),
		"replica":    serveNS(t, nameserver.NewRPCService(node.Server)),
	}

	for _, name := range []string{"d/b", "d/a", "d/c/deep", "e"} {
		for who, c := range clients {
			if err := c.Call("NS.Set", &nameserver.SetArgs{Name: name, Value: "v-" + name}, &nameserver.SetReply{}); err != nil {
				t.Fatalf("%s: set %s: %v", who, name, err)
			}
		}
	}

	type answer struct {
		Reply any
		Err   string
	}
	ask := func(c *rpc.Client, method string, arg, reply any) answer {
		if err := c.Call(method, arg, reply); err != nil {
			return answer{Err: err.Error()}
		}
		return answer{Reply: reply}
	}
	for _, name := range []string{"d", "d/c", "d/a", "e", "ghost", "d/ghost/deeper"} {
		for _, q := range []struct {
			method string
			ask    func(c *rpc.Client) answer
		}{
			{"NS.Lookup", func(c *rpc.Client) answer {
				return ask(c, "NS.Lookup", &nameserver.LookupArgs{Name: name}, &nameserver.LookupReply{})
			}},
			{"NS.List", func(c *rpc.Client) answer {
				return ask(c, "NS.List", &nameserver.ListArgs{Name: name}, &nameserver.ListReply{})
			}},
			{"NS.Enumerate", func(c *rpc.Client) answer {
				return ask(c, "NS.Enumerate", &nameserver.EnumerateArgs{Name: name}, &nameserver.EnumerateReply{})
			}},
		} {
			want, got := q.ask(clients["nameserver"]), q.ask(clients["replica"])
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s %q: replica answered %+v, nameserver %+v", q.method, name, got, want)
			}
		}
	}

	var ls nameserver.ListReply
	if err := clients["replica"].Call("NS.List", &nameserver.ListArgs{Name: "d"}, &ls); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a", "b", "c"}; !reflect.DeepEqual(ls.Labels, want) {
		t.Errorf("replica NS.List d = %v, want %v", ls.Labels, want)
	}
	var en nameserver.EnumerateReply
	if err := clients["replica"].Call("NS.Enumerate", &nameserver.EnumerateArgs{Name: "d"}, &en); err != nil {
		t.Fatal(err)
	}
	if want := []string{"d/a", "d/b", "d/c/deep"}; !reflect.DeepEqual(en.Names, want) {
		t.Errorf("replica NS.Enumerate d = %v, want %v", en.Names, want)
	}
}

// TestNSServiceTracesOnlyCallersTraces: behind an instrumented rpc server,
// the NS service over a Server and over a W = 2 Node starts no trace of its
// own. An untraced Set leaves nothing in the trace buffer, only untraced
// events. A Set under the caller's context puts the call, its commit and
// the commit's six phases under that trace — at W = 2 also the push, its
// rpc attempt and the member's commit.
func TestNSServiceTracesOnlyCallersTraces(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T, tr obs.Tracer) *nameserver.Server
		// untraced lists the events an untraced Set must emit.
		untraced []string
	}{
		{"server", func(t *testing.T, tr obs.Tracer) *nameserver.Server {
			s, err := nameserver.Open(nameserver.Config{FS: vfs.NewMem(1), Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			return s
		}, []string{"rpc.call", "update.commit", "log.flush"}},
		{"node W=2", func(t *testing.T, tr obs.Tracer) *nameserver.Server {
			return makeGroupOf(t, Config{GroupConfig: groupOf(2, "a", "b"), Tracer: tr}).primary.Server
		}, []string{"rpc.call", "update.commit", "log.flush", "replica.push"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			var events []obs.Event
			tb := obs.NewTraceBuffer(256)
			tr := obs.Multi(tb, obs.FuncTracer(func(e obs.Event) {
				mu.Lock()
				events = append(events, e)
				mu.Unlock()
			}))
			srv := rpc.NewServer()
			srv.Instrument(obs.NewRegistry(), tr)
			if err := srv.Register("NS", nameserver.NewRPCService(tc.open(t, tr))); err != nil {
				t.Fatal(err)
			}
			cc, sc := net.Pipe()
			go srv.ServeConn(sc)
			client := rpc.NewClient(cc)
			t.Cleanup(func() {
				client.Close()
				srv.Close()
			})
			taken := func() []obs.Event {
				mu.Lock()
				defer mu.Unlock()
				out := events
				events = nil
				return out
			}
			taken() // drop the events of opening the store

			if err := client.Call("NS.Set", &nameserver.SetArgs{Name: "a/b", Value: "1"}, &nameserver.SetReply{}); err != nil {
				t.Fatal(err)
			}
			if got := tb.Traces(); len(got) != 0 {
				t.Errorf("untraced Set started traces: %+v", got)
			}
			seen := map[string]bool{}
			for _, e := range taken() {
				if e.Trace != 0 || !slices.Contains(tc.untraced, e.Name) {
					t.Errorf("untraced Set emitted %v", e)
				}
				seen[e.Name] = true
			}
			for _, name := range tc.untraced {
				if !seen[name] {
					t.Errorf("untraced Set emitted no %s", name)
				}
			}

			root := obs.NewRootContext()
			if err := client.CallRetry(root, "NS.Set", &nameserver.SetArgs{Name: "a/b", Value: "2"}, &nameserver.SetReply{}, rpc.RetryPolicy{}); err != nil {
				t.Fatal(err)
			}
			trace := tb.Trace(root.Trace)
			children := func(parent obs.SpanID, name string) []obs.Event {
				var out []obs.Event
				for _, e := range trace {
					if e.Parent == parent && e.Name == name {
						out = append(out, e)
					}
				}
				return out
			}
			// one follows the chain parent → name and returns its one span.
			one := func(parent obs.Event, name string) obs.Event {
				t.Helper()
				got := children(parent.Span, name)
				if len(got) != 1 {
					t.Fatalf("%d %s spans under %s, want 1; trace:\n%v", len(got), name, parent.Name, trace)
				}
				return got[0]
			}
			commitHasPhases := func(commit obs.Event) {
				t.Helper()
				for _, phase := range []string{"lock.wait", "verify", "pickle", "wal.append", "apply", "wal.sync"} {
					if len(children(commit.Span, phase)) == 0 {
						t.Errorf("no %s span under %v", phase, commit)
					}
				}
			}
			call := one(obs.Event{Name: "the caller", Span: root.Span}, "rpc.call")
			commitHasPhases(one(call, "update.commit"))
			if tc.name == "server" {
				return
			}
			attempt := one(one(call, "replica.push"), "rpc.attempt")
			commitHasPhases(one(one(attempt, "rpc.call"), "update.commit"))
		})
	}
}

// TestServerUpdatesCommitThroughNode: every name-server update of a node
// goes through its replicated commit, and a raw one goes nowhere. A raw
// name-tree update applied to a node's store is refused, and neither the
// node's tree nor its vector moves. Put and Rename, which the node has from
// nameserver.Server, are stamped, advance the origin's slot, and have
// reached the W = 2 member once they are acked.
func TestServerUpdatesCommitThroughNode(t *testing.T) {
	gc := makeGroup(t, 2, "a", "b")
	a := gc.primary
	if err := a.Set("x", "1"); err != nil {
		t.Fatal(err)
	}
	before := dump(t, a)
	err := a.Store().Apply(&nameserver.SetValue{Path: []string{"raw"}, Value: "v"})
	if err == nil || !strings.Contains(err.Error(), "root is *replica.Root, not *Tree") {
		t.Fatalf("raw name-tree update on a replica store = %v, want refused", err)
	}
	if got := dump(t, a); got != before {
		t.Fatalf("refused update moved the node:\n%s\n--- was ---\n%s", got, before)
	}

	sub := &nameserver.Node{Children: map[string]*nameserver.Node{"c": {Value: "pv", HasValue: true}}}
	if err := a.Put("p", sub); err != nil {
		t.Fatal(err)
	}
	if err := a.Rename("p", "q"); err != nil {
		t.Fatal(err)
	}
	var logged []Entry
	if err := a.Store().History(true, func(_ uint64, u core.Update) error {
		logged = append(logged, u.(*Replicated).entry())
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	tail := logged[len(logged)-2:]
	for i, e := range tail {
		if e.Origin != "a" || e.Seq != uint64(i+2) || e.Stamp != uint64(i+2) {
			t.Errorf("entry %d = %s/%d stamp %d, want a/%d stamp %d", i, e.Origin, e.Seq, e.Stamp, i+2, i+2)
		}
	}
	if _, ok := tail[0].Inner.(*nameserver.PutSubtree); !ok {
		t.Errorf("entry 0 holds %T, want *nameserver.PutSubtree", tail[0].Inner)
	}
	if _, ok := tail[1].Inner.(*nameserver.Move); !ok {
		t.Errorf("entry 1 holds %T, want *nameserver.Move", tail[1].Inner)
	}
	if v, err := gc.members[0].Lookup("q/c"); err != nil || v != "pv" {
		t.Errorf("member b: q/c = %q, %v; want pv", v, err)
	}
	requireSame(t, a, gc.members[0])
}
