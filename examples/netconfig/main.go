// Netconfig: the paper's "network name servers, network configuration
// information" example, using the name-server layer directly — a tree of
// hash tables holding hosts, addresses and service records, replicated to a
// second server, with a hard-error restore.
//
// Run with:
//
//	go run ./examples/netconfig
package main

import (
	"fmt"
	"log"
	"net"

	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

func main() {
	// Two replicas, connected by the RPC layer over in-memory pipes (use
	// cmd/nsd for real TCP daemons). alpha is one of a group of N = 2 at
	// write quorum W = 2, so beta holds an update when Set returns; nsd's
	// default, W = 1, acks after alpha alone and propagates behind the ack.
	pair := replica.GroupConfig{Members: []replica.Member{{Name: "alpha", Addr: "pipe"}, {Name: "beta", Addr: "pipe"}}, W: 2}
	fsA := vfs.NewMem(1)
	alpha, err := replica.Open(replica.Config{Name: "alpha", FS: fsA, GroupConfig: pair})
	if err != nil {
		log.Fatal(err)
	}
	defer alpha.Close()
	fsB := vfs.NewMem(2)
	beta, err := replica.Open(replica.Config{Name: "beta", FS: fsB})
	if err != nil {
		log.Fatal(err)
	}

	srvA, srvB := rpc.NewServer(), rpc.NewServer()
	srvA.Register("Replica", replica.NewService(alpha))
	srvB.Register("Replica", replica.NewService(beta))
	defer srvA.Close()
	defer srvB.Close()

	dial := func(srv *rpc.Server) *rpc.Client {
		c, s := net.Pipe()
		go srv.ServeConn(s)
		return rpc.NewClient(c)
	}
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	must(alpha.Connect("beta", dial(srvB)))
	toAlpha := dial(srvA)
	defer toAlpha.Close()

	// Populate network configuration at alpha; its push stream carries it
	// to beta.
	must(alpha.Set("net/hosts/gva/addr", "16.4.0.1"))
	must(alpha.Set("net/hosts/gva/os", "ultrix"))
	must(alpha.Set("net/hosts/src/addr", "16.4.0.2"))
	must(alpha.Set("net/services/nameserver/port", "7001"))
	must(alpha.Set("net/services/mail/port", "25"))
	must(alpha.Set("net/routes/default", "16.4.0.254"))

	v, err := beta.Lookup("net/hosts/gva/addr")
	must(err)
	fmt.Println("beta sees gva at", v)

	// Browse the tree the way nsctl enumerate does.
	fmt.Println("alpha's services:")
	for _, svc := range []string{"nameserver", "mail"} {
		port, err := alpha.Lookup("net/services/" + svc + "/port")
		must(err)
		fmt.Printf("  %s: port %s\n", svc, port)
	}

	// Hard error at beta: its disk dies entirely. Restore from alpha,
	// losing nothing (everything had propagated).
	beta.Close()
	fsB2 := vfs.NewMem(99)
	beta2, err := replica.Open(replica.Config{Name: "beta", FS: fsB2})
	must(err)
	defer beta2.Close()
	must(beta2.RestoreFromPeer(toAlpha))

	v, err = beta2.Lookup("net/routes/default")
	must(err)
	fmt.Println("beta restored from alpha; default route =", v)

	vec, _ := beta2.Vector()
	fmt.Printf("beta's version vector after restore: %v\n", vec)
}
