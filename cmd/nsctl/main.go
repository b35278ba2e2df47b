// Command nsctl is the name-server client: the browsing and modification
// user interface of the paper's §6, speaking the RPC protocol to an nsd.
//
// Usage:
//
//	nsctl -addr localhost:7001 set net/hosts/gva 16.4.0.1
//	nsctl -addr localhost:7001 lookup net/hosts/gva
//	nsctl -addr localhost:7001 list net/hosts
//	nsctl -addr localhost:7001 enumerate net
//	nsctl -addr localhost:7001 delete net/hosts/gva
//	nsctl -addr localhost:7001 trace net/hosts/gva 16.4.0.1
//	nsctl -addr localhost:7002 read net/hosts/gva 1042
//
// The read command is the bounded-staleness enquiry against any replica
// group member: it carries a minimum durable frontier (typically the
// frontier a previous read reported), the member catches up or refuses if
// it cannot serve at that floor, and the reply names the frontier actually
// served — feed it to the next read for monotonic reads across members.
//
// The trace command issues one traced set and prints the server-side
// commit timeline for it — lock wait, pickle, log append and sync, and
// (on a replicated daemon) the push to each peer with its remote apply.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"

	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: nsctl -addr host:port <command> [args]

commands:
  lookup <name>            print the value bound to name
  set <name> <value>       bind value to name
  delete <name>            remove name and its subtree
  list <name>              print the child labels under name
  enumerate <name>         print every name=value at or below name
  read <name> [min-seq]    bounded-staleness read from a replica group
                           member: serve name at durable frontier
                           >= min-seq or fail stale; prints the value
                           and the frontier served
  trace <name> [value]     set name (to value, or back to its current
                           value) under a fresh trace and print the
                           server's commit timeline for it
`)
	os.Exit(2)
}

func main() {
	addr := flag.String("addr", "localhost:7001", "name server address")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	client, err := rpc.Dial(*addr)
	if err != nil {
		fatal("dial %s: %v", *addr, err)
	}
	defer client.Close()

	switch cmd, rest := args[0], args[1:]; cmd {
	case "lookup":
		need(rest, 1)
		var reply nameserver.LookupReply
		if err := client.Call("NS.Lookup", &nameserver.LookupArgs{Name: rest[0]}, &reply); err != nil {
			fatal("lookup: %v", err)
		}
		fmt.Println(reply.Value)
	case "set":
		need(rest, 2)
		if err := client.Call("NS.Set", &nameserver.SetArgs{Name: rest[0], Value: rest[1]}, &nameserver.SetReply{}); err != nil {
			fatal("set: %v", err)
		}
	case "delete":
		need(rest, 1)
		if err := client.Call("NS.Delete", &nameserver.DeleteArgs{Name: rest[0]}, &nameserver.DeleteReply{}); err != nil {
			fatal("delete: %v", err)
		}
	case "list":
		need(rest, 1)
		var reply nameserver.ListReply
		if err := client.Call("NS.List", &nameserver.ListArgs{Name: rest[0]}, &reply); err != nil {
			fatal("list: %v", err)
		}
		for _, l := range reply.Labels {
			fmt.Println(l)
		}
	case "enumerate":
		need(rest, 1)
		var reply nameserver.EnumerateReply
		if err := client.Call("NS.Enumerate", &nameserver.EnumerateArgs{Name: rest[0]}, &reply); err != nil {
			fatal("enumerate: %v", err)
		}
		for i, n := range reply.Names {
			fmt.Printf("%s=%s\n", n, reply.Values[i])
		}
	case "read":
		if len(rest) != 1 && len(rest) != 2 {
			usage()
		}
		var minSeq uint64
		if len(rest) == 2 {
			var err error
			if minSeq, err = strconv.ParseUint(rest[1], 10, 64); err != nil {
				fatal("read: bad min-seq %q: %v", rest[1], err)
			}
		}
		var reply replica.ReadReply
		if err := client.Call("Replica.Read", &replica.ReadArgs{Name: rest[0], MinSeq: minSeq}, &reply); err != nil {
			fatal("read: %v", err)
		}
		if reply.Stale {
			fatal("read: stale: member %s frontier %d below min-seq %d; retry against a fresher member", reply.Node, reply.Frontier, minSeq)
		}
		fmt.Println(reply.Value)
		fmt.Fprintf(os.Stderr, "nsctl: frontier %d served by %s\n", reply.Frontier, reply.Node)
	case "trace":
		if len(rest) != 1 && len(rest) != 2 {
			usage()
		}
		name := rest[0]
		value := "trace-probe"
		if len(rest) == 2 {
			value = rest[1]
		} else {
			// Rewrite the current value when there is one, so the probe
			// does not change the database.
			var lr nameserver.LookupReply
			if err := client.Call("NS.Lookup", &nameserver.LookupArgs{Name: name}, &lr); err == nil {
				value = lr.Value
			}
		}
		sc := obs.NewRootContext()
		if err := client.CallRetry(sc, "NS.Set", &nameserver.SetArgs{Name: name, Value: value}, &nameserver.SetReply{}, rpc.RetryPolicy{}); err != nil {
			fatal("trace: set: %v", err)
		}
		var reply nameserver.TraceReply
		if err := client.Call("Trace.Get", &nameserver.TraceArgs{Trace: uint64(sc.Trace)}, &reply); err != nil {
			fatal("trace: fetch: %v", err)
		}
		events := make([]obs.Event, 0, len(reply.Events))
		for _, te := range reply.Events {
			events = append(events, te.Event())
		}
		fmt.Printf("trace %016x: %d events\n", uint64(sc.Trace), len(events))
		obs.WriteTimeline(os.Stdout, events)
	default:
		usage()
	}
}

func need(args []string, n int) {
	if len(args) != n {
		usage()
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "nsctl: "+format+"\n", args...)
	os.Exit(1)
}
