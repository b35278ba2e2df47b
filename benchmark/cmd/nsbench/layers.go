package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/pickle"
	"smalldb/internal/replica"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

// perLayer is what a traced run reports: the raw values behind the ratios,
// then one group per module of the repository, outside in. None is gated.
// README.md says which end-to-end metric each is predicted to move.
var perLayer = []metricDef{
	{name: "client.read_mean_us", unit: "us", better: "lower"},
	{name: "client.read_p50_us", unit: "us", better: "lower"},
	{name: "client.read_p99_us", unit: "us", better: "lower"},
	{name: "client.write_mean_us", unit: "us", better: "lower"},
	{name: "client.write_p50_us", unit: "us", better: "lower"},
	{name: "client.write_p99_us", unit: "us", better: "lower"},
	{name: "client.list_mean_us", unit: "us", better: "lower"},
	{name: "client.echo_mean_us", unit: "us", better: "lower"},
	{name: "client.echo_p99_us", unit: "us", better: "lower"},
	{name: "client.durable_echo_mean_us", unit: "us", better: "lower"},
	{name: "client.tput_ops", unit: "1/s", better: "higher"},
	{name: "client.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "nsd.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "echo.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "nsd.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "nsd.restart_s", unit: "s", better: "lower"},
	{name: "host.steal_pct", unit: "%", better: "lower"},

	{name: "rpc.null_call_us", unit: "us", better: "lower"},
	{name: "rpc.server_lookup_mean_us", unit: "us", better: "lower"},
	{name: "rpc.server_set_mean_us", unit: "us", better: "lower"},
	{name: "rpc.errors", unit: "count", better: "lower"},

	{name: "pickle.marshal_set_ns", unit: "ns", better: "lower"},
	{name: "pickle.unmarshal_set_ns", unit: "ns", better: "lower"},
	{name: "pickle.marshal_lookup_reply_ns", unit: "ns", better: "lower"},
	{name: "pickle.marshal_list500_us", unit: "us", better: "lower"},
	{name: "pickle.allocs_per_set", unit: "count", better: "lower"},
	{name: "pickle.tree_encode_mb_s", unit: "MB/s", better: "higher"},
	{name: "pickle.tree_decode_mb_s", unit: "MB/s", better: "higher"},
	{name: "pickle.plan_compiles", unit: "count", better: "lower"},

	{name: "wal.append_ns", unit: "ns", better: "lower"},
	{name: "wal.append_sync_us", unit: "us", better: "lower"},
	{name: "wal.bytes_per_update", unit: "B", better: "lower"},
	{name: "wal.syncs_per_update", unit: "ratio", better: "lower"},
	{name: "wal.replay_entries_per_s", unit: "1/s", better: "higher"},

	{name: "core.apply_us", unit: "us", better: "lower"},
	{name: "core.view_ns", unit: "ns", better: "lower"},
	{name: "core.update_verify_ns", unit: "ns", better: "lower"},
	{name: "core.update_pickle_ns", unit: "ns", better: "lower"},
	{name: "core.update_commit_ns", unit: "ns", better: "lower"},
	{name: "core.update_apply_ns", unit: "ns", better: "lower"},
	{name: "core.versions_published_per_update", unit: "ratio", better: "lower"},
	{name: "core.enquiries_locked", unit: "count", better: "lower"},
	{name: "core.restart_checkpoint_s", unit: "s", better: "lower"},
	{name: "core.restart_delta_s", unit: "s", better: "lower"},
	{name: "core.restart_replay_s", unit: "s", better: "lower"},

	{name: "nameserver.lookup_ns", unit: "ns", better: "lower"},
	{name: "nameserver.set_us", unit: "us", better: "lower"},
	{name: "nameserver.list500_us", unit: "us", better: "lower"},
	{name: "nameserver.bulk_put_s", unit: "s", better: "lower"},

	{name: "checkpoint.full_s", unit: "s", better: "lower"},
	{name: "checkpoint.full_bytes", unit: "B", better: "lower"},
	{name: "checkpoint.steady_mean_s", unit: "s", better: "lower"},
	{name: "checkpoint.steady_mean_bytes", unit: "B", better: "lower"},
	{name: "checkpoint.count", unit: "count", better: "lower"},
	{name: "checkpoint.compactions", unit: "count", better: "lower"},
	{name: "checkpoint.write_amp", unit: "ratio", better: "lower"},
	{name: "checkpoint.stall_max_us", unit: "us", better: "lower"},

	{name: "replica.quorum_wait_mean_us", unit: "us", better: "lower"},
	{name: "replica.pushes_per_update", unit: "ratio", better: "lower"},
	{name: "replica.member_cpu_us_per_op", unit: "us", better: "lower"},
	{name: "replica.laggards_max", unit: "count", better: "lower"},
	{name: "replica.converge_s", unit: "s", better: "lower"},

	{name: "vfs.fsync_us", unit: "us", better: "lower"},

	{name: "ladder.sum_read_us", unit: "us", better: "lower"},
	{name: "ladder.unaccounted_read_us", unit: "us", better: "lower"},
	{name: "ladder.sum_write_us", unit: "us", better: "lower"},
	{name: "ladder.unaccounted_write_us", unit: "us", better: "lower"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
	{name: "trace.spans", unit: "count", better: "higher"},
}

// ladderSpan is one in-process measurement of a layer, written to the span
// file beside the op spans.
type ladderSpan struct {
	name       string
	start, end time.Time
}

// ladder times calls into one layer's public functions and keeps a span for
// each measurement.
type ladder struct {
	spans []ladderSpan
}

// per runs fn n times and returns the mean time of one call.
func (l *ladder) per(name string, n int, fn func(i int) error) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("ladder %s: %w", name, err)
		}
	}
	end := time.Now()
	l.spans = append(l.spans, ladderSpan{"ladder." + name, start, end})
	return end.Sub(start) / time.Duration(n), nil
}

// Null is the empty RPC service behind rpc.null_call_us.
type Null struct{}

type NullArgs struct{}
type NullReply struct{}

func (Null) Call(*NullArgs, *NullReply) error { return nil }

func init() {
	pickle.Register(&NullArgs{})
	pickle.Register(&NullReply{})
}

// serveNull is nsbench's other mode (-null-server): an rpc.Server with one
// handler that does nothing, in a process of its own like nsd, so that a
// call to it costs what the rpc layer and the wire cost and nothing else.
// It prints its address and serves until it is killed. A traced run's
// clients call it after every op of the steady phase, as they do the echo:
// measured on its own afterwards, or only now and then, the same call reads
// anywhere from 100 to 370 us on this host, depending on whether the callers
// happen to leave a vCPU idle long enough to sleep.
func serveNull() error {
	srv := rpc.NewServer()
	if err := srv.Register("Null", Null{}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	fmt.Println(ln.Addr())
	return srv.Serve(ln)
}

// roundTrip is the mean marshal and unmarshal time of one value.
func (l *ladder) roundTrip(name string, v, into any) (marshal, unmarshal time.Duration, err error) {
	var data []byte
	if marshal, err = l.per("pickle.marshal_"+name, 20000, func(int) (e error) { data, e = pickle.Marshal(v); return }); err != nil {
		return
	}
	unmarshal, err = l.per("pickle.unmarshal_"+name, 20000, func(int) error { return pickle.Unmarshal(data, into) })
	return
}

// localStore is the killed primary's directory opened in-process: a plain
// name server, or a replica node for the group workload.
type localStore struct {
	lookup func(name string) (string, error)
	set    func(name, value string) error
	list   func(name string) ([]string, error) // nil on a replica node, which serves no List
	apply  func(path []string, value string) error
	store  *core.Store
	close  func() error
	// emptyRoot returns a pointer to decode a pickled root into.
	emptyRoot func() any
}

func openLocal(dir, replicaName string) (*localStore, error) {
	fs, err := vfs.NewOS(dir)
	if err != nil {
		return nil, err
	}
	if replicaName == "" {
		srv, err := nameserver.Open(nameserver.Config{FS: fs})
		if err != nil {
			return nil, err
		}
		return &localStore{lookup: srv.Lookup, set: srv.Set, list: srv.List, store: srv.Store(), close: srv.Close,
			emptyRoot: func() any { return new(nameserver.Tree) },
			apply: func(path []string, value string) error {
				return srv.Store().Apply(&nameserver.SetValue{Path: path, Value: value})
			}}, nil
	}
	n, err := replica.Open(replica.Config{Name: replicaName, FS: fs})
	if err != nil {
		return nil, err
	}
	return &localStore{lookup: n.Lookup, set: n.Set, store: n.Store(), close: n.Close,
		emptyRoot: func() any { return new(replica.Root) },
		apply: func(path []string, value string) error {
			return n.Apply(&nameserver.SetValue{Path: path, Value: value})
		}}, nil
}

// layerMetrics fills in the per-layer report of a traced run: the client's
// raw figures, nsd's own counters over the steady phase, and the ladder of
// in-process layer costs measured on a copy of the killed directory.
func (b *bench) layerMetrics(res *result, s *steady, parts setupParts, killedCopy string, steal float64) error {
	set := res.set
	var all slice
	for _, w := range s.windows {
		all.add(w)
	}
	read, write, list, echo := summarize(all.lookup), summarize(all.set), summarize(all.list), summarize(all.echo)
	set("client.read_mean_us", read.meanUs)
	set("client.read_p50_us", read.p50Us)
	set("client.read_p99_us", read.tailUs)
	set("client.write_mean_us", write.meanUs)
	set("client.write_p50_us", write.p50Us)
	set("client.write_p99_us", write.tailUs)
	set("client.list_mean_us", list.meanUs)
	set("client.echo_mean_us", echo.meanUs)
	set("client.echo_p99_us", echo.tailUs)
	set("client.durable_echo_mean_us", summarize(all.durable).meanUs)
	res.notes = append(res.notes, fmt.Sprintf("# tails: read p%g of %d, write p%g of %d, echo p%g of %d samples (the highest percentile ≤ 99 with ≥ 10 samples beyond it)",
		read.tailP, read.n, write.tailP, write.n, echo.tailP, echo.n))

	nsdOps, echoOps, nSets := s.ops()
	set("client.tput_ops", float64(nsdOps)/s.seconds)
	set("client.cpu_us_per_op", float64(s.after.selfUs-s.before.selfUs)/float64(nsdOps))
	usPerTick := 1e6 / clockTick
	var memberTicks int64
	for i := range s.after.nodeTicks[1:] {
		memberTicks += s.after.nodeTicks[i+1] - s.before.nodeTicks[i+1]
	}
	set("nsd.cpu_us_per_op", float64(s.after.nodeTicks[0]-s.before.nodeTicks[0])*usPerTick/float64(nsdOps))
	set("echo.cpu_us_per_op", float64(s.after.echoTicks-s.before.echoTicks)*usPerTick/float64(echoOps))
	set("replica.member_cpu_us_per_op", float64(memberTicks)*usPerTick/float64(nsdOps))
	set("nsd.peak_rss_mb", float64(s.peakRSSkB)/1024)
	set("host.steal_pct", steal)

	// nsd's own accounting, as deltas over the steady phase.
	m0, m1 := s.before.metrics[0], s.after.metrics[0]
	updates := delta(m0, m1, "core_updates")
	perUpdate := func(series string) float64 {
		if updates == 0 {
			return 0
		}
		return delta(m0, m1, series) / updates
	}
	set("rpc.server_lookup_mean_us", histMeanDelta(m0, m1, "rpc_latency_ns_NS.Lookup")/1e3)
	set("rpc.server_set_mean_us", histMeanDelta(m0, m1, "rpc_latency_ns_NS.Set")/1e3)
	set("rpc.errors", delta(m0, m1, "rpc_errors"))
	set("pickle.plan_compiles", m1.num("pickle_plan_compiles"))
	set("wal.bytes_per_update", perUpdate("wal_append_bytes"))
	set("wal.syncs_per_update", syncsPerUpdate(m0, m1))
	for _, phase := range []string{"verify", "pickle", "commit", "apply"} {
		set("core.update_"+phase+"_ns", histMeanDelta(m0, m1, "core_update_"+phase+"_ns"))
	}
	set("core.versions_published_per_update", perUpdate("core_versions_published"))
	set("core.enquiries_locked", delta(m0, m1, "core_enquiries_locked"))
	checkpoints := delta(m0, m1, "core_checkpoints")
	set("checkpoint.count", checkpoints)
	set("checkpoint.compactions", delta(m0, m1, "core_compactions"))
	cpSeconds := 0.0
	for _, phase := range []string{"pickle", "io", "switch"} {
		h0, h1 := m0.hist("core_checkpoint_"+phase+"_ns"), m1.hist("core_checkpoint_"+phase+"_ns")
		cpSeconds += (h1.Sum - h0.Sum) / 1e9
	}
	var cpBytes int64
	for _, size := range s.cpFiles {
		cpBytes += size
	}
	if checkpoints > 0 {
		set("checkpoint.steady_mean_s", cpSeconds/checkpoints)
	} else {
		set("checkpoint.steady_mean_s", 0)
	}
	if n := len(s.cpFiles); n > 0 {
		set("checkpoint.steady_mean_bytes", float64(cpBytes)/float64(n))
	} else {
		set("checkpoint.steady_mean_bytes", 0)
	}
	set("checkpoint.write_amp", float64(cpBytes)/float64(nSets*int64(len(b.d.names[0])+valueLen)))
	set("checkpoint.stall_max_us", m1.hist("checkpoint_stall_ns").Max/1e3)
	set("checkpoint.full_s", parts.fullCheckpointS)
	set("checkpoint.full_bytes", float64(parts.fullCheckpointBytes))
	set("nameserver.bulk_put_s", parts.bulkPutS)
	set("replica.quorum_wait_mean_us", histMeanDelta(m0, m1, "replica_group_quorum_lag_ns")/1e3)
	set("replica.pushes_per_update", perUpdate("replica_group_pushes"))
	set("replica.laggards_max", s.laggardsMax)
	set("replica.converge_s", parts.convergeS)

	// The ladder: each layer's public functions called from here, alone.
	var l ladder
	local, err := openLocal(killedCopy, b.replicaName())
	if err != nil {
		return fmt.Errorf("open the killed directory in-process: %w", err)
	}
	defer local.close()
	st := local.store.Stats()
	set("core.restart_checkpoint_s", st.RestartCheckpointTime.Seconds())
	set("core.restart_delta_s", st.RestartDeltaTime.Seconds())
	set("core.restart_replay_s", st.RestartReplayTime.Seconds())

	name := func(i int) string { return b.d.names[(i*7919)%len(b.d.names)] }
	lookupNs, err := l.per("nameserver.lookup", 200000, func(i int) error { _, err := local.lookup(name(i)); return err })
	if err != nil {
		return err
	}
	viewNs, err := l.per("core.view", 200000, func(int) error { return local.store.View(func(any) error { return nil }) })
	if err != nil {
		return err
	}
	setUs, err := l.per("nameserver.set", 300, func(i int) error { return local.set(name(i), b.d.value(i, 1<<20)) })
	if err != nil {
		return err
	}
	path, err := nameserver.SplitPath(name(1))
	if err != nil {
		return err
	}
	applyUs, err := l.per("core.apply", 300, func(i int) error { return local.apply(path, b.d.value(i, 1<<21)) })
	if err != nil {
		return err
	}
	var list500 time.Duration
	if local.list != nil {
		if list500, err = l.per("nameserver.list500", 2000, func(i int) error { _, err := local.list(b.d.deptName(i % b.d.depts)); return err }); err != nil {
			return err
		}
	}
	set("nameserver.lookup_ns", float64(lookupNs))
	set("core.view_ns", float64(viewNs))
	set("nameserver.set_us", float64(setUs)/1e3)
	set("core.apply_us", float64(applyUs)/1e3)
	set("nameserver.list500_us", float64(list500)/1e3)

	// pickle: the messages of one canonical Set and Lookup, a 500-label
	// List reply, and the whole tree as a checkpoint writes and reads it.
	setArgs := &nameserver.SetArgs{Name: name(1), Value: b.d.value(1, 0)}
	mSet, uSet, err := l.roundTrip("set_args", setArgs, &nameserver.SetArgs{})
	if err != nil {
		return err
	}
	mSetReply, uSetReply, err := l.roundTrip("set_reply", &nameserver.SetReply{}, &nameserver.SetReply{})
	if err != nil {
		return err
	}
	mLookup, uLookup, err := l.roundTrip("lookup_args", &nameserver.LookupArgs{Name: name(1)}, &nameserver.LookupArgs{})
	if err != nil {
		return err
	}
	mLookupReply, uLookupReply, err := l.roundTrip("lookup_reply", &nameserver.LookupReply{Value: b.d.value(1, 0)}, &nameserver.LookupReply{})
	if err != nil {
		return err
	}
	labels := make([]string, b.d.hosts)
	for i := range labels {
		labels[i] = b.d.hostLabel(i)
	}
	mList, err := l.per("pickle.marshal_list500", 2000, func(int) error { _, err := pickle.Marshal(&nameserver.ListReply{Labels: labels}); return err })
	if err != nil {
		return err
	}
	set("pickle.marshal_set_ns", float64(mSet))
	set("pickle.unmarshal_set_ns", float64(uSet))
	set("pickle.marshal_lookup_reply_ns", float64(mLookupReply))
	set("pickle.marshal_list500_us", float64(mList)/1e3)
	set("pickle.allocs_per_set", testing.AllocsPerRun(1000, func() { _, _ = pickle.Marshal(setArgs) })) // measured above without error
	var image []byte
	enc, err := l.per("pickle.tree_encode", 1, func(int) error {
		return local.store.View(func(root any) (e error) { image, e = pickle.Marshal(root); return })
	})
	if err != nil {
		return err
	}
	dec, err := l.per("pickle.tree_decode", 1, func(int) error {
		return pickle.Unmarshal(image, local.emptyRoot())
	})
	if err != nil {
		return err
	}
	set("pickle.tree_encode_mb_s", float64(len(image))/1e6/enc.Seconds())
	set("pickle.tree_decode_mb_s", float64(len(image))/1e6/dec.Seconds())

	// wal and the device under it, on the run's own file system.
	walFS, err := vfs.NewOS(filepath.Join(b.runDir, "ladder-wal"))
	if err != nil {
		return err
	}
	payload, err := pickle.Marshal(&nameserver.SetValue{Path: path, Value: b.d.value(1, 0)})
	if err != nil {
		return err
	}
	synced, err := wal.Create(walFS, "synced", 1, wal.Options{})
	if err != nil {
		return err
	}
	appendSync, err := l.per("wal.append_sync", 300, func(int) error { _, err := synced.Append(payload); return err })
	if err != nil {
		return err
	}
	if err := synced.Close(); err != nil {
		return err
	}
	const unsyncedEntries = 50000
	unsynced, err := wal.Create(walFS, "unsynced", 1, wal.Options{NoSync: true})
	if err != nil {
		return err
	}
	appendNs, err := l.per("wal.append", unsyncedEntries, func(int) error { _, err := unsynced.Append(payload); return err })
	if err != nil {
		return err
	}
	if err := unsynced.Close(); err != nil {
		return err
	}
	replay, err := l.per("wal.replay", 1, func(int) error {
		r, err := wal.Replay(walFS, "unsynced", 1, wal.ReplayOptions{}, func(uint64, []byte) error { return nil })
		if err == nil && r.Entries != unsyncedEntries {
			err = fmt.Errorf("replayed %d of %d entries", r.Entries, unsyncedEntries)
		}
		return err
	})
	if err != nil {
		return err
	}
	f, err := walFS.Create("fsync")
	if err != nil {
		return err
	}
	fsync, err := l.per("vfs.fsync", 300, func(int) error {
		if _, err := f.Write(payload); err != nil {
			return err
		}
		return f.Sync()
	})
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	set("wal.append_sync_us", float64(appendSync)/1e3)
	set("wal.append_ns", float64(appendNs))
	set("wal.replay_entries_per_s", unsyncedEntries/replay.Seconds())
	set("vfs.fsync_us", float64(fsync)/1e3)

	var nullNs, nulls int64
	for _, r := range s.recs {
		nullNs, nulls = nullNs+r.nullNs, nulls+r.nulls
	}
	null := time.Duration(mean(nullNs, nulls))
	set("rpc.null_call_us", float64(null)/1e3)

	// Reconciliation: Σ of the isolated layer costs of one canonical op
	// against what the client measured, the remainder named, not hidden.
	quorumUs := histMeanDelta(m0, m1, "replica_group_quorum_lag_ns") / 1e3
	sumRead := float64(null+mLookup+uLookup+mLookupReply+uLookupReply+lookupNs) / 1e3
	sumWrite := float64(null+mSet+uSet+mSetReply+uSetReply+setUs)/1e3 + quorumUs
	set("ladder.sum_read_us", sumRead)
	set("ladder.unaccounted_read_us", read.meanUs-sumRead)
	set("ladder.sum_write_us", sumWrite)
	set("ladder.unaccounted_write_us", write.meanUs-sumWrite)
	res.notes = append(res.notes,
		fmt.Sprintf("# ladder read:  rpc %.1f + pickle %.1f + nameserver %.1f = %.1f us of %.1f us measured; unaccounted %.1f us",
			float64(null)/1e3, float64(mLookup+uLookup+mLookupReply+uLookupReply)/1e3, float64(lookupNs)/1e3, sumRead, read.meanUs, read.meanUs-sumRead),
		fmt.Sprintf("# ladder write: rpc %.1f + pickle %.1f + nameserver(core+wal+sync) %.1f + quorum %.1f = %.1f us of %.1f us measured; unaccounted %.1f us",
			float64(null)/1e3, float64(mSet+uSet+mSetReply+uSetReply)/1e3, float64(setUs)/1e3, quorumUs, sumWrite, write.meanUs, write.meanUs-sumWrite))

	// Tracing overhead: even windows recorded spans, odd windows did not.
	var on, off slice
	for _, w := range s.windows {
		if w.traced {
			on.add(w)
		} else {
			off.add(w)
		}
	}
	perOp := func(w slice) float64 {
		return mean(sumNs(w.lookup)+sumNs(w.list)+sumNs(w.set)+sumNs(w.echo)+sumNs(w.durable), int64(len(w.lookup)+len(w.list)+len(w.set)))
	}
	set("trace.overhead_pct", 100*(perOp(on)/perOp(off)-1))
	spans, err := b.writeTrace(s, l.spans)
	if err != nil {
		return err
	}
	set("trace.spans", float64(spans))
	return nil
}

// writeTrace writes out/<workload>.trace.jsonl: for the first traced ops of
// the steady phase a client.op span with its rpc.call and echo.call
// children, then the ladder's spans. It returns the number of spans held in
// memory, which is more than it writes.
func (b *bench) writeTrace(s *steady, ladderSpans []ladderSpan) (int, error) {
	var ops []opTrace
	for _, r := range s.recs {
		ops = append(ops, r.traces...)
	}
	held := 3*len(ops) + len(ladderSpans)
	sort.Slice(ops, func(i, j int) bool { return ops[i].t0 < ops[j].t0 })
	if len(ops) > tracedOpsToFile {
		ops = ops[:tracedOpsToFile]
	}
	path := filepath.Join(filepath.Dir(b.runDir), b.wl.name+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	kinds := map[opKind]string{opLookup: "NS.Lookup", opList: "NS.List", opSet: "NS.Set"}
	span := func(trace, id, parent int, name string, start, end int64, attrs string) {
		fmt.Fprintf(w, `{"trace":%d,"span":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d%s}`+"\n", trace, id, parent, name, start, end, attrs)
	}
	for i, o := range ops {
		attrs := fmt.Sprintf(`,"client":%d,"method":%q`, o.client, kinds[o.kind])
		span(i+1, 1, 0, "client.op", o.t0, o.t2, attrs)
		span(i+1, 2, 1, "rpc.call", o.t0, o.t1, "")
		span(i+1, 3, 1, "echo.call", o.t1, o.t2, "")
	}
	var epoch time.Time
	if len(ladderSpans) > 0 {
		epoch = ladderSpans[0].start
	}
	for i, ls := range ladderSpans {
		span(len(ops)+1, i+1, 0, ls.name, int64(ls.start.Sub(epoch)), int64(ls.end.Sub(epoch)), `,"clock":"ladder"`)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return held, f.Close()
}
