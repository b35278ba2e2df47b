package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

const (
	setupRepeats    = 3    // set-ups per untraced run; setup_s is their median
	warmupOpsMax    = 2000 // ops through the wire before anything is timed: one nominal second's worth, at most this
	windowsPerRun   = 20   // equal slices of each client's op stream
	restartsTimed   = 3    // crash-restarts per traced run; nsd.restart_s is their median
	durableSample   = 3000 // names read back after the crash, besides each client's last Sets
	lastSetsKept    = 128
	tracedOpsToFile = 20000
	callTimeout     = 20 * time.Second
)

// bench is one run in progress.
type bench struct {
	o           options
	wl          *workload
	d           *dataset
	clients     int
	nsdBin      string
	runDir      string
	echoAddr    string
	echoCmd     *exec.Cmd
	durableAddr string // the echo server started with -sync
	nullAddr    string // set on traced runs

	dep   *deployment
	m     *model
	conns []*conn
}

// usage is the CPU and host counters read at each end of the steady phase.
type usage struct {
	nodeTicks            []int64
	echoTicks            int64
	selfUs               int64
	hostTotal, hostSteal int64
	metrics              []snapshot
}

func (b *bench) readUsage() (usage, error) {
	var u usage
	for _, n := range b.dep.nodes {
		t, err := cpuTicks(n.cmd.Process.Pid)
		if err != nil {
			return u, err
		}
		u.nodeTicks = append(u.nodeTicks, t)
		s, err := scrape(n.debugAddr)
		if err != nil {
			return u, err
		}
		u.metrics = append(u.metrics, s)
	}
	var err error
	if u.echoTicks, err = cpuTicks(b.echoCmd.Process.Pid); err != nil {
		return u, err
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return u, err
	}
	u.selfUs = (ru.Utime.Sec+ru.Stime.Sec)*1e6 + int64(ru.Utime.Usec+ru.Stime.Usec)
	if u.hostTotal, u.hostSteal, err = hostTicks(); err != nil {
		return u, err
	}
	return u, nil
}

// steady is everything the steady phase measured.
type steady struct {
	recs          []*clientRec
	windows       []slice
	seconds       float64
	before, after usage
	peakRSSkB     int64
	// Sums over the 50 ms samples of the primary's VmRSS and directory size.
	rssKBSum, dirBytesSum, samples int64
	cpFiles                        map[string]int64 // checkpoint files seen in the primary's directory, by final size
	laggardsMax                    float64
}

func (s *steady) ops() (nsd, echo, sets int64) {
	for _, w := range s.windows {
		nsd += int64(len(w.lookup) + len(w.list) + len(w.set))
		echo += int64(len(w.echo))
		sets += int64(len(w.set))
	}
	return
}

// watch samples, every 50 ms of the steady phase, what a reading at its end
// would catch at an arbitrary moment: the primary's resident set and the
// bytes in its data directory, both of which jump when a checkpoint runs.
// Their means over the phase are steady where the end values are not. A
// traced run also notes the checkpoint files that come and go and, for a
// group, the laggard gauge (at the price of a scrape every half second).
func (b *bench) watch(stop <-chan struct{}, s *steady) {
	primary := b.dep.nodes[0]
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for round := 0; ; round++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		rss, err := statusKB(primary.cmd.Process.Pid, "VmRSS")
		if err != nil {
			continue
		}
		ents, err := os.ReadDir(primary.dir)
		if err != nil {
			continue
		}
		var bytes int64
		for _, e := range ents {
			info, err := e.Info()
			if err != nil || !info.Mode().IsRegular() {
				continue // retention removed it between the listing and the stat
			}
			bytes += info.Size()
			if b.o.trace && strings.HasPrefix(e.Name(), "checkpoint") && info.Size() > s.cpFiles[e.Name()] {
				s.cpFiles[e.Name()] = info.Size()
			}
		}
		s.rssKBSum += rss
		s.dirBytesSum += bytes
		s.samples++
		if b.o.trace && b.wl.nodes > 1 && round%10 == 0 {
			if m, err := scrape(primary.debugAddr); err == nil {
				s.laggardsMax = max(s.laggardsMax, m.num("replica_group_laggards"))
			}
		}
	}
}

func (b *bench) runSteady() (*steady, error) {
	s := &steady{cpFiles: map[string]int64{}}
	n := b.wl.opsPerSecond * b.o.seconds / b.clients
	var err error
	if s.before, err = b.readUsage(); err != nil {
		return nil, err
	}
	// Checkpoint files already there (the bulk load's full image) are not
	// the steady phase's work.
	const preexisting = 1 << 62
	if ents, err := os.ReadDir(b.dep.nodes[0].dir); err == nil {
		for _, e := range ents {
			s.cpFiles[e.Name()] = preexisting
		}
	}
	stop, watched := make(chan struct{}), make(chan struct{})
	go func() { defer close(watched); b.watch(stop, s) }()
	t0 := time.Now()
	s.recs = b.drive(saltSteady, n, b.o.trace)
	s.seconds = since(t0)
	close(stop)
	<-watched
	if s.after, err = b.readUsage(); err != nil {
		return nil, err
	}
	primary := b.dep.nodes[0]
	if s.peakRSSkB, err = statusKB(primary.cmd.Process.Pid, "VmHWM"); err != nil {
		return nil, err
	}
	if s.samples == 0 {
		return nil, fmt.Errorf("the steady phase ended before its first 50 ms sample; raise -seconds")
	}
	s.windows = make([]slice, windowsPerRun)
	for _, r := range s.recs {
		for i, w := range r.windows {
			s.windows[i].add(w)
			s.windows[i].traced = w.traced
		}
	}
	for name, size := range s.cpFiles {
		if size == preexisting {
			delete(s.cpFiles, name)
		}
	}
	return s, nil
}

// crashAndRestart kills every node, starts them again on the same
// directories and returns the time from exec to the primary's first correct
// Lookup, with a client connected to it.
func (b *bench) crashAndRestart() (float64, *rpc.Client, error) {
	b.dep.crash()
	t0 := time.Now()
	if err := b.dep.startAll(); err != nil {
		return 0, nil, err
	}
	c, err := firstCorrectReply(b.dep.nodes[0].rpcAddr, b.d.names[0], b.m.settled(0), 120*time.Second)
	return since(t0), c, err
}

// durabilitySample is the names read back after the crash: each client's
// newest acknowledged Sets — the ones a lost log tail would take — and a
// seeded sample of the whole name space.
func (b *bench) durabilitySample(recs []*clientRec) []int {
	var idxs []int
	for _, r := range recs {
		idxs = append(idxs, r.lastSets...)
	}
	x := splitmix64(b.d.seed ^ saltSample<<32)
	for i := 0; i < durableSample; i++ {
		x = splitmix64(x)
		idxs = append(idxs, int(x%uint64(len(b.d.names))))
	}
	return idxs
}

// checkDurable reads the sample back through the restarted primary: every
// acknowledged Set must have survived the SIGKILL.
func (b *bench) checkDurable(c *rpc.Client, idxs []int) (failed int64, first error) {
	for _, idx := range idxs {
		got, err := lookup(c, b.d.names[idx])
		if err == nil && got != b.m.settled(idx) {
			err = fmt.Errorf("after the crash %s = %q, but %q was acknowledged", b.d.names[idx], got, b.m.settled(idx))
		}
		if err != nil {
			failed++
			if first == nil {
				first = err
			}
		}
	}
	return failed, first
}

// checkQuorum opens a copy of each killed node's directory in-process — the
// bytes on disk and nothing a live peer could repair — and requires every
// sampled acknowledged value on at least two of them.
func (b *bench) checkQuorum(copies []string, idxs []int) (failed int64, first error) {
	holders := make([]int, len(idxs))
	for i, dir := range copies {
		fs, err := vfs.NewOS(dir)
		if err != nil {
			return int64(len(idxs)), err
		}
		n, err := replica.Open(replica.Config{Name: b.dep.nodes[i].name, FS: fs})
		if err != nil {
			return int64(len(idxs)), fmt.Errorf("open copy of %s: %w", b.dep.nodes[i].name, err)
		}
		for j, idx := range idxs {
			if v, err := n.Lookup(b.d.names[idx]); err == nil && v == b.m.settled(idx) {
				holders[j]++
			}
		}
		if err := n.Close(); err != nil {
			return int64(len(idxs)), err
		}
	}
	for j, h := range holders {
		if h < 2 {
			failed++
			if first == nil {
				first = fmt.Errorf("acknowledged value of %s is on %d nodes after the crash, want at least 2", b.d.names[idxs[j]], h)
			}
		}
	}
	return failed, first
}

// run is one whole run of one workload.
func run(o options, wl *workload) (res *result, err error) {
	home, err := filepath.Abs(o.home)
	if err != nil {
		return nil, err
	}
	b := &bench{o: o, wl: wl, clients: clientCount(), nsdBin: filepath.Join(home, ".build", "nsd")}
	b.runDir = filepath.Join(home, "out", fmt.Sprintf("run-%s-%d", wl.name, os.Getpid()))
	if err := os.MkdirAll(b.runDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		procs.killAll()
		if err != nil {
			// The nsd logs and data directories say what went wrong.
			err = fmt.Errorf("%w (run directory kept: %s)", err, b.runDir)
			return
		}
		os.RemoveAll(b.runDir)
	}()

	if b.echoCmd, b.echoAddr, err = startServer(filepath.Join(home, ".build", "echo"), filepath.Join(b.runDir, "echo.log")); err != nil {
		return nil, err
	}
	syncDir := filepath.Join(b.runDir, "durable-echo")
	if err := os.MkdirAll(syncDir, 0o755); err != nil {
		return nil, err
	}
	if _, b.durableAddr, err = startServer(filepath.Join(home, ".build", "echo"), filepath.Join(b.runDir, "durable-echo.log"), "-sync", syncDir); err != nil {
		return nil, err
	}
	if o.trace {
		self, err := os.Executable()
		if err != nil {
			return nil, err
		}
		if _, b.nullAddr, err = startServer(self, filepath.Join(b.runDir, "null.log"), "-null-server"); err != nil {
			return nil, err
		}
	}
	b.d = newDataset(o.seed, wl.depts, wl.hosts)
	res = &result{metrics: map[string]float64{}}

	// Set-up, timed as a whole; only the last one is kept and measured on.
	repeats := setupRepeats
	if o.trace {
		repeats = 1 // setup_s is an end-to-end metric; a traced run does not report it
	}
	var setups []float64
	var parts setupParts
	for i := 0; i < repeats; i++ {
		if b.dep != nil {
			b.tearDown()
			if err := os.RemoveAll(b.dep.root); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		if parts, err = b.setUp(i); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, since(t0))
	}
	defer b.tearDown()

	s, err := b.runSteady()
	if err != nil {
		return nil, err
	}
	for _, r := range s.recs {
		res.attempted += r.attempted
		res.failed += r.failed
		if r.firstErr != nil {
			res.notes = append(res.notes, fmt.Sprintf("# FAILED op: %v", r.firstErr))
		}
	}
	b.closeConns()

	// Crash, then restart on what the crash left. The first restart also
	// carries the read-back of acknowledged Sets, after its time is taken.
	idxs := b.durabilitySample(s.recs)
	b.dep.crash()
	var copies []string
	if o.trace || wl.nodes > 1 {
		for _, n := range b.dep.nodes {
			dst := filepath.Join(b.runDir, "killed-"+n.name)
			if err := copyDir(n.dir, dst); err != nil {
				return nil, err
			}
			copies = append(copies, dst)
		}
	}
	// Restart time is reported by traced runs only (nsd.restart_s): an
	// untraced run restarts once, for the durability check.
	nRestarts := 1
	if o.trace {
		nRestarts = restartsTimed
	}
	var restarts []float64
	for i := 0; i < nRestarts; i++ {
		d, c, err := b.crashAndRestart()
		if err != nil {
			return nil, fmt.Errorf("restart %d after crash: %w", i, err)
		}
		restarts = append(restarts, d)
		if i == 0 {
			failed, first := b.checkDurable(c, idxs)
			res.attempted += int64(len(idxs))
			if wl.nodes > 1 {
				qf, qerr := b.checkQuorum(copies, idxs)
				res.attempted += int64(len(idxs))
				failed += qf
				if first == nil {
					first = qerr
				}
			}
			res.failed += failed
			if first != nil {
				res.notes = append(res.notes, fmt.Sprintf("# FAILED durability: %v", first))
			}
		}
		c.Close()
	}
	b.dep.crash()
	res.correct = res.failed == 0

	steal := 0.0
	if dt := s.after.hostTotal - s.before.hostTotal; dt > 0 {
		steal = 100 * float64(s.after.hostSteal-s.before.hostSteal) / float64(dt)
	}
	res.notes = append(envNotes(o, wl, b.clients, fsKind(b.runDir), steal), res.notes...)
	if o.trace {
		res.set("nsd.restart_s", median(restarts))
		if err := b.layerMetrics(res, s, parts, copies[0], steal); err != nil {
			return nil, err
		}
	} else {
		b.endToEndMetrics(res, s, setups, restarts[0])
	}
	return res, nil
}

// endToEndMetrics fills in the gated metrics from an untraced run.
func (b *bench) endToEndMetrics(res *result, s *steady, setups []float64, restart float64) {
	res.set("setup_s", median(setups))
	readRel, rw := relOverWindows(s.windows, func(w slice) []uint32 { return w.lookup }, func(w slice) []uint32 { return w.echo })
	writeRel, ww := relOverWindows(s.windows, func(w slice) []uint32 { return w.set }, func(w slice) []uint32 { return w.durable })
	res.set("read_rel", readRel)
	res.set("write_rel", writeRel)
	res.set("cpu_rel", b.cpuRel(s))
	res.set("rss_mb", mean(s.rssKBSum, s.samples)/1024)
	res.set("space_amp", mean(s.dirBytesSum, s.samples)/float64(b.d.liveBytes()))
	before, after := s.before.metrics[0], s.after.metrics[0]
	updates := delta(before, after, "core_updates")
	res.set("log_bytes_per_update", delta(before, after, "wal_append_bytes")/updates)
	syncs := syncsPerUpdate(before, after)
	res.set("syncs_per_update", syncs)
	// The uncalibrated values behind the ratios, for the self-check to set
	// beside them; a single run does not print them.
	var total slice
	for _, w := range s.windows {
		total.add(w)
	}
	nsdOps, _, _ := s.ops()
	res.set("raw.restart_s", restart)
	res.set("raw.read_p50_us", medianNs(total.lookup)/1e3)
	res.set("raw.write_p50_us", medianNs(total.set)/1e3)
	res.set("raw.nsd_cpu_us_per_op", float64(s.after.nodeTicks[0]-s.before.nodeTicks[0])*1e6/clockTick/float64(nsdOps))
	res.notes = append(res.notes,
		fmt.Sprintf("# steady phase %.2f s, %d windows for read_rel, %d for write_rel; set-ups %.3v s; restart %.3f s", s.seconds, rw, ww, setups, restart))
	if syncs < 1 {
		res.notes = append(res.notes, fmt.Sprintf("# WARNING syncs_per_update = %.4f is below 1: commits are being grouped, or skipped", syncs))
	}
}

// syncsPerUpdate counts log syncs per committed update on the primary: disk
// writes on a single log, epoch seals on a sharded one.
func syncsPerUpdate(before, after snapshot) float64 {
	series := "wal_flushes"
	if after.num("core_log_shards") > 1 {
		series = "wal_epochs"
	}
	return delta(before, after, series) / delta(before, after, "core_updates")
}

// cpuRel is server CPU per nsd op over echo-server CPU per echo op.
func (b *bench) cpuRel(s *steady) float64 {
	nsdOps, echoOps, _ := s.ops()
	var nsdTicks int64
	for i := range s.after.nodeTicks {
		nsdTicks += s.after.nodeTicks[i] - s.before.nodeTicks[i]
	}
	echoTicks := s.after.echoTicks - s.before.echoTicks
	return (float64(nsdTicks) / float64(nsdOps)) / (float64(echoTicks) / float64(echoOps))
}
