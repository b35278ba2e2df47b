package replica

import (
	"net"
	"reflect"
	"testing"

	"smalldb/internal/nameserver"
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
// from an unreplicated one. The same names go in through NS.Set, and every
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
		"replica":    serveNS(t, NewNSService(node)),
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
