package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// node is one nsd process.
type node struct {
	name, dir, logPath string
	rpcAddr, debugAddr string
	args               []string
	cmd                *exec.Cmd
}

// deployment is the nsd processes of one set-up; nodes[0] serves the clients.
type deployment struct {
	nsdBin string
	root   string
	nodes  []*node
}

func (dep *deployment) start(n *node) error {
	cmd := exec.Command(dep.nsdBin, n.args...)
	logf, err := os.OpenFile(n.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer logf.Close() // the child has its own descriptor
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := procs.start(cmd); err != nil {
		return err
	}
	n.cmd = cmd
	return nil
}

func (dep *deployment) startAll() error {
	for _, n := range dep.nodes {
		if err := dep.start(n); err != nil {
			return err
		}
	}
	return nil
}

// crash SIGKILLs every node: nothing gets to flush, so what the next start
// finds is what the commit protocol had made durable.
func (dep *deployment) crash() {
	for _, n := range dep.nodes {
		if n.cmd != nil {
			procs.kill(n.cmd)
			n.cmd = nil
		}
	}
}

// lookup is one NS.Lookup through c.
func lookup(c *rpc.Client, name string) (string, error) {
	var reply nameserver.LookupReply
	err := c.CallTimeout("NS.Lookup", &nameserver.LookupArgs{Name: name}, &reply, callTimeout)
	return reply.Value, err
}

// firstCorrectReply dials addr until nsd answers a Lookup of name with want.
// nsd listens only once recovery has finished, so for a restart this is the
// moment the name server is back.
func firstCorrectReply(addr, name, want string, timeout time.Duration) (*rpc.Client, error) {
	var client *rpc.Client
	err := waitFor("first correct reply from "+addr, timeout, 2*time.Millisecond, func() (bool, error) {
		c, err := rpc.Dial(addr)
		if err != nil {
			return false, err
		}
		got, err := lookup(c, name)
		if err == nil && got != want {
			err = fmt.Errorf("Lookup(%s) = %q, want %q", name, got, want)
		}
		if err != nil {
			c.Close()
			return false, err
		}
		client = c
		return true, nil
	})
	return client, err
}

// setupParts are the pieces of one set-up the per-layer report wants.
type setupParts struct {
	bulkPutS, fullCheckpointS, convergeS float64
	fullCheckpointBytes                  int64
}

// bulkLoad writes the seeded data set into dir in-process and checkpoints
// it, so that nsd starts from a full image and an empty log. A single store
// takes one PutSubtree per department; a replica member takes batches of
// stamped Sets, the only updates a replicated store logs.
func bulkLoad(dir string, d *dataset, replicaName string) (setupParts, error) {
	var parts setupParts
	fs, err := vfs.NewOS(dir)
	if err != nil {
		return parts, err
	}
	var store *core.Store
	var closer io.Closer
	t0 := time.Now()
	if replicaName == "" {
		srv, err := nameserver.Open(nameserver.Config{FS: fs})
		if err != nil {
			return parts, fmt.Errorf("bulk load: open: %w", err)
		}
		store, closer = srv.Store(), srv
		for dept := 0; dept < d.depts; dept++ {
			sub := &nameserver.Node{Children: make(map[string]*nameserver.Node, d.hosts)}
			for h := 0; h < d.hosts; h++ {
				idx := dept*d.hosts + h
				leaf := &nameserver.Node{Value: d.value(idx, 0), HasValue: true}
				sub.Children[d.hostLabel(idx)] = &nameserver.Node{Children: map[string]*nameserver.Node{"addr": leaf}}
			}
			if err := srv.Put(d.deptName(dept), sub); err != nil {
				srv.Close()
				return parts, fmt.Errorf("bulk load: put %s: %w", d.deptName(dept), err)
			}
		}
	} else {
		n, err := replica.Open(replica.Config{Name: replicaName, FS: fs})
		if err != nil {
			return parts, fmt.Errorf("bulk load: open replica: %w", err)
		}
		store, closer = n.Store(), n
		const batch = 1000
		for lo := 0; lo < len(d.names); lo += batch {
			hi := min(lo+batch, len(d.names))
			us := make([]core.Update, 0, hi-lo)
			for idx := lo; idx < hi; idx++ {
				path, err := nameserver.SplitPath(d.names[idx])
				if err != nil {
					n.Close()
					return parts, err
				}
				us = append(us, &nameserver.SetValue{Path: path, Value: d.value(idx, 0)})
			}
			if err := n.ApplyBatch(us); err != nil {
				n.Close()
				return parts, fmt.Errorf("bulk load: batch at %d: %w", lo, err)
			}
		}
	}
	parts.bulkPutS = since(t0)
	t1 := time.Now()
	if err := store.Checkpoint(); err != nil {
		closer.Close()
		return parts, fmt.Errorf("bulk load: checkpoint: %w", err)
	}
	parts.fullCheckpointS = since(t1)
	parts.fullCheckpointBytes = store.Stats().LastCheckpointBytes
	if err := closer.Close(); err != nil {
		return parts, fmt.Errorf("bulk load: close: %w", err)
	}
	return parts, nil
}

// plan lays out the nsd processes of one set-up under root.
func (b *bench) plan(root string) (*deployment, error) {
	dep := &deployment{nsdBin: b.nsdBin, root: root}
	names := []string{"ns"}
	if b.wl.nodes > 1 {
		names = []string{"alpha", "beta", "gamma"}[:b.wl.nodes]
	}
	for _, name := range names {
		n := &node{name: name, dir: filepath.Join(root, name), logPath: filepath.Join(root, name+".log")}
		if err := os.MkdirAll(n.dir, 0o755); err != nil {
			return nil, err
		}
		var err error
		if n.rpcAddr, err = freePort(); err != nil {
			return nil, err
		}
		if n.debugAddr, err = freePort(); err != nil {
			return nil, err
		}
		dep.nodes = append(dep.nodes, n)
	}
	checkpoint := "24h"
	if b.wl.checkpoints > 0 {
		checkpoint = (time.Duration(b.o.seconds) * time.Second / time.Duration(b.wl.checkpoints)).String()
	}
	for i, n := range dep.nodes {
		n.args = []string{"-dir", n.dir, "-listen", n.rpcAddr, "-debug", n.debugAddr, "-checkpoint", checkpoint}
		if b.wl.nodes == 1 {
			continue
		}
		var peers []string
		for _, p := range dep.nodes {
			if p != n {
				peers = append(peers, p.name+"="+p.rpcAddr)
			}
		}
		n.args = append(n.args, "-name", n.name, "-peers", strings.Join(peers, ","), "-anti-entropy", "1s")
		if i == 0 {
			n.args = append(n.args, "-quorum", "2")
		}
	}
	return dep, nil
}

// setUp is what setup_s times: load the data, start every process, get a
// first correct reply, push the warm-up through the wire and, for a group,
// wait until no member lags.
func (b *bench) setUp(attempt int) (setupParts, error) {
	dep, err := b.plan(filepath.Join(b.runDir, fmt.Sprintf("setup%d", attempt)))
	if err != nil {
		return setupParts{}, err
	}
	b.dep, b.m = dep, newModel(b.d)
	parts, err := bulkLoad(dep.nodes[0].dir, b.d, b.replicaName())
	if err != nil {
		return parts, err
	}
	if err := dep.startAll(); err != nil {
		return parts, err
	}
	b.conns = nil
	for c := 0; c < b.clients; c++ {
		ns, err := firstCorrectReply(dep.nodes[0].rpcAddr, b.d.names[0], b.m.settled(0), 60*time.Second)
		if err != nil {
			return parts, err
		}
		echo, err := dialEcho(b.echoAddr)
		if err != nil {
			ns.Close()
			return parts, err
		}
		durable, err := dialEcho(b.durableAddr)
		if err != nil {
			ns.Close()
			echo.close()
			return parts, err
		}
		cn := &conn{ns: ns, echo: echo, durable: durable}
		b.conns = append(b.conns, cn)
		if b.nullAddr != "" {
			if cn.null, err = rpc.Dial(b.nullAddr); err != nil {
				return parts, err
			}
		}
	}
	recs := b.drive(saltWarm, min(warmupOpsMax, b.wl.opsPerSecond)/b.clients, false)
	probe := 0
	for _, r := range recs {
		if r.failed > 0 {
			return parts, fmt.Errorf("warm-up: %d of %d ops failed: %v", r.failed, r.attempted, r.firstErr)
		}
		if n := len(r.lastSets); n > 0 {
			probe = r.lastSets[n-1]
		}
	}
	if b.wl.nodes > 1 {
		t0 := time.Now()
		if err := b.awaitConvergence(probe); err != nil {
			return parts, err
		}
		parts.convergeS = since(t0)
	}
	return parts, nil
}

// awaitConvergence waits until the primary reports no lagging member and
// every member serves the acknowledged value of the probe name, which the
// warm-up wrote last.
func (b *bench) awaitConvergence(probe int) error {
	primary := b.dep.nodes[0]
	err := waitFor("no lagging member", 60*time.Second, 10*time.Millisecond, func() (bool, error) {
		s, err := scrape(primary.debugAddr)
		if err != nil {
			return false, err
		}
		return s.num("replica_group_laggards") == 0 && s.num("replica_group_queue_depth") == 0, nil
	})
	if err != nil {
		return err
	}
	for _, n := range b.dep.nodes[1:] {
		c, err := firstCorrectReply(n.rpcAddr, b.d.names[probe], b.m.settled(probe), 60*time.Second)
		if err != nil {
			return fmt.Errorf("member %s: %w", n.name, err)
		}
		c.Close()
	}
	return nil
}

// replicaName is the primary's replica name, or "" for a single store.
func (b *bench) replicaName() string {
	if b.wl.nodes > 1 {
		return b.dep.nodes[0].name
	}
	return ""
}

func (b *bench) closeConns() {
	for _, c := range b.conns {
		c.close()
	}
	b.conns = nil
}

func (b *bench) tearDown() {
	b.closeConns()
	if b.dep != nil {
		b.dep.crash()
	}
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
