// Command nsd is the name-server daemon: the paper's worked example as a
// running network service. It stores its database (checkpoint + log) in a
// directory, serves enquiries and updates over the RPC protocol, and
// optionally replicates to peer daemons.
//
// Usage:
//
//	nsd -dir /var/lib/nsd -listen :7001
//	nsd -dir /var/lib/nsd2 -listen :7002 -name beta -peers alpha=localhost:7001
//	nsd -dir /var/lib/nsd -listen :7001 -debug :7070 -slow 50ms
//	nsd -dir /var/lib/nsd1 -listen :7001 -name alpha -quorum 2 \
//	    -peers beta=localhost:7002,gamma=localhost:7003
//
// Without -name, the daemon runs unreplicated and serves the "NS" service.
// With -name, it is one member of the replica group formed with its -peers
// and additionally serves the "Replica" service: every NS.Set/Delete
// commits locally, streams to each peer in order, and is acknowledged once
// -quorum W members (itself included) have it durably. The default, W = 1,
// is the paper's rule — ack after one replica, propagate behind the ack —
// and -quorum 2 of three is a primary that survives any one loss. Above
// W = 1 the push to W − 1 peers leaves beside the local sync, so after a
// start the daemon pulls from every peer before it takes a Set; while one
// has not answered, every Set is refused at once. Every -anti-entropy
// interval the daemon probes each peer's version vector and
// pushes whatever it lacks; a peer that falls behind a push is repaired at
// once. A peer that originates no updates still wants its -peers list, so
// a bounded-staleness Replica.Read (see nsctl read) behind the client's
// floor can catch itself up in place instead of redirecting.
//
// With -debug, the daemon serves a live observability endpoint over plain
// HTTP GET: /metrics (JSON), /stats (human-readable; ?buckets=1 adds
// distributions, then the flight recorder's recent events), /debug/trace,
// /debug/flight and /debug/pprof/ (CPU profile, trace, named profiles).
// With -slow, operations over the threshold (and all errors) are logged.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	rtdebug "runtime/debug"
	"syscall"
	"time"

	"smalldb/internal/nameserver"
	"smalldb/internal/obs"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

func main() {
	var (
		dir         = flag.String("dir", "", "database directory (required)")
		listen      = flag.String("listen", ":7001", "RPC listen address")
		name        = flag.String("name", "", "replica name; enables replication")
		peers       = flag.String("peers", "", "comma-separated name=addr list of the other group members")
		quorum      = flag.Int("quorum", 0, "write quorum W: members, this one included, that hold an update before it is acknowledged (0 = 1)")
		checkpoint  = flag.Duration("checkpoint", 24*time.Hour, "checkpoint interval (the paper's nightly checkpoint)")
		antiEntropy = flag.Duration("anti-entropy", time.Minute, "interval at which each peer's vector is probed and repaired (replicated mode)")
		retain      = flag.Int("retain", 1, "previous checkpoint+log pairs kept for hard-error recovery")
		debug       = flag.String("debug", "", "serve /metrics, /stats, /debug/trace, /debug/flight and /debug/pprof/ over plain HTTP GET on this address")
		slow        = flag.Duration("slow", 0, "log operations slower than this (0 disables)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "nsd: -dir is required")
		os.Exit(2)
	}

	fs, err := vfs.NewOS(*dir)
	if err != nil {
		log.Fatalf("nsd: %v", err)
	}

	// The registry is always built (it is one map); -debug decides
	// whether it is served. The tracer fans out to the span collector
	// behind /debug/trace and the "Trace" RPC service (the calls whose
	// callers sent a trace context), the crash-surviving flight recorder
	// in the database directory (whose in-memory tail is /debug/flight and
	// /stats' recent events), and (with -slow) the slow-op logger.
	reg := obs.NewRegistry()
	traces := obs.NewTraceBuffer(4096)
	flight, err := obs.OpenFlight(obs.FlightConfig{FS: fs, FlushEvery: 250 * time.Millisecond})
	if err != nil {
		log.Fatalf("nsd: flight recorder: %v", err)
	}
	defer flight.PanicFlush()
	var tracer obs.Tracer = obs.Multi(traces, flight)
	if *slow > 0 {
		tracer = obs.Multi(traces, flight, obs.SlowOps(*slow, log.Printf))
	}
	startTime := time.Now()
	reg.Register("proc_uptime_seconds", func() any { return int64(time.Since(startTime).Seconds()) })
	reg.Register("proc_goroutines", func() any { return runtime.NumGoroutine() })

	srv := rpc.NewServer()
	srv.Instrument(reg, tracer)
	if err := srv.Register("Trace", nameserver.NewTraceService(traces)); err != nil {
		log.Fatalf("nsd: %v", err)
	}
	// Both branches end with one name server: a lone store's, or a replica
	// node's, whose commit is replicated and whose Close stops the group.
	var ns *nameserver.Server
	var closer interface{ Close() error }
	if *name == "" {
		ns, err = nameserver.Open(nameserver.Config{FS: fs, Retain: *retain, Obs: reg, Tracer: tracer})
		if err != nil {
			log.Fatalf("nsd: open: %v", err)
		}
		closer = ns
		log.Printf("nsd: serving %s (unreplicated) on %s", *dir, *listen)
	} else {
		group, err := replica.ParseGroupSpec(*name, *peers, max(*quorum, 1))
		if err != nil {
			log.Fatalf("nsd: group config: %v", err)
		}
		group.AntiEntropyEvery = *antiEntropy
		node, err := replica.Open(replica.Config{Name: *name, FS: fs, Retain: *retain, Obs: reg, Tracer: tracer, GroupConfig: group})
		if err != nil {
			log.Fatalf("nsd: open replica: %v", err)
		}
		for _, m := range group.Members[1:] {
			// Lazy reconnecting client: a member need not be up yet, and
			// a member restart just redials on the next push or repair
			// round.
			client := rpc.DialRetry(m.Addr)
			client.Instrument(reg)
			if err := node.Connect(m.Name, client); err != nil {
				log.Fatalf("nsd: connect %s: %v", m.Name, err)
			}
		}
		if err := srv.Register("Replica", replica.NewService(node)); err != nil {
			log.Fatalf("nsd: %v", err)
		}
		ns, closer = node.Server, node
		log.Printf("nsd: serving %s as replica %q (N=%d, W=%d) on %s", *dir, *name, len(group.Members), node.W(), *listen)
	}
	ns.CheckpointEvery(*checkpoint)
	if err := srv.Register("NS", nameserver.NewRPCService(ns)); err != nil {
		log.Fatalf("nsd: %v", err)
	}

	var admin *obs.AdminServer
	if *debug != "" {
		admin, err = obs.ServeAdmin(*debug, reg, obs.AdminOptions{Traces: traces, Flight: flight})
		if err != nil {
			log.Fatalf("nsd: debug listen: %v", err)
		}
		log.Printf("nsd: debug endpoint on http://%s (/metrics /stats /debug/trace /debug/flight /debug/pprof/)", admin.Addr)
	}

	// Restart read each checkpoint file whole: return the heap those dead
	// buffers grew before serving (kept, it raised lookup rss_mb by 17%).
	rtdebug.FreeOSMemory()
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("nsd: listen: %v", err)
	}
	go func() {
		if err := srv.Serve(l); err != nil {
			log.Printf("nsd: serve: %v", err)
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("nsd: shutting down")
	srv.Close()
	admin.Close()
	if err := closer.Close(); err != nil {
		log.Printf("nsd: close: %v", err)
	}
	if err := flight.Close(); err != nil {
		log.Printf("nsd: flight close: %v", err)
	}
}
