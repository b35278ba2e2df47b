package bench

import (
	"fmt"
	"math/rand"
	"time"

	"smalldb/internal/nameserver"
	"smalldb/internal/vfs"
)

// An Experiment regenerates one of the paper's reported measurements.
type Experiment struct {
	ID    string
	Title string
	Run   func(Env) ([]*Table, error)
}

// All lists every experiment, in id order.
func All() []Experiment {
	return []Experiment{
		{"e1", "enquiry latency (paper §5: 5 ms, pure virtual memory)", E1},
		{"e2", "update latency breakdown (paper §5: 6+22+20+6 = 54 ms)", E2},
		{"e3", "checkpoint cost (paper §5: 55 s pickling + 5 s disk)", E3},
		{"e4", "restart time vs log length (paper §5: 20 s + 20 ms/entry)", E4},
		{"e5", "sustained update rate and group commit (paper §5: >15 tx/s)", E5},
		{"e6", "§2 technique comparison (text file / ad hoc / atomic commit / this design)", E6},
		{"e7", "checkpoint frequency tradeoff (paper §5, §7)", E7},
		{"e8", "locking ablation: enquiries during update disk writes (paper §3)", E8},
		{"e9", "crash-recovery reliability (paper §4)", E9},
		{"e10", "implementation size (paper §6 source line counts)", E10},
		{"e11", "remote access via RPC (paper §5: 13 ms enquiry, 62 ms update)", E11},
		{"e12", "pickling share of update cost (paper §6: ~40%)", E12},
		{"e13", "replica hard-error restore (paper §4)", E13},
		{"e14", "extension: partitioned databases over one shared log (paper §7)", E14},
	}
}

// Run executes the named experiments (all of them if none named), printing
// each table to env.Out.
func Run(env Env, ids ...string) error {
	env = env.Defaults()
	want := map[string]bool{}
	for _, id := range ids {
		want[id] = true
	}
	for _, ex := range All() {
		if len(want) > 0 && !want[ex.ID] {
			continue
		}
		tables, err := ex.Run(env)
		if err != nil {
			return fmt.Errorf("%s: %w", ex.ID, err)
		}
		for _, t := range tables {
			t.Fprint(env.Out)
		}
	}
	return nil
}

// modeledFS builds the standard experiment substrate: in-memory files
// behind the MicroVAX disk model. scale 0 = accounting only.
func modeledFS(seed int64, scale float64) (*vfs.Mem, *vfs.Metered) {
	mem := vfs.NewMem(seed)
	return mem, vfs.NewMetered(mem, MicroVAX, scale)
}

// buildNS opens a name server on fs and populates it with env.DBEntries
// entries — the paper's "1 megabyte database" at the default Env.
func buildNS(env Env, fs vfs.FS, cfg nameserver.Config) (*nameserver.Server, error) {
	cfg.FS = fs
	s, err := nameserver.Open(cfg)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(env.Seed))
	for i := 0; i < env.DBEntries; i++ {
		if err := s.Set(NameFor(i), Value(rng, env.ValueSize)); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

func slow(cpu time.Duration) time.Duration {
	return time.Duration(float64(cpu) * CPUSlowdown)
}

// E1 measures enquiry latency: a pure virtual-memory lookup.
func E1(env Env) ([]*Table, error) {
	env = env.Defaults()
	mem, d := modeledFS(env.Seed, 0)
	_ = mem
	s, err := buildNS(env, d, nameserver.Config{})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(env.Seed + 1))
	names := Names(rng, env.DBEntries, env.iters(20000, 500))
	// Warm up, then measure.
	for _, n := range names[:len(names)/10+1] {
		s.Lookup(n)
	}
	d.ResetStats()
	var hist Hist
	for _, n := range names {
		t0 := time.Now()
		if _, err := s.Lookup(n); err != nil {
			return nil, err
		}
		hist.Add(time.Since(t0))
	}
	diskIO := d.Stats().ModeledIO

	return []*Table{{
		ID:     "E1",
		Title:  "enquiry latency (1 MB-class database, working set in memory)",
		Header: []string{"quantity", "paper (MicroVAX, 1987)", "measured", "1987-equivalent"},
		Rows: [][]string{
			{"enquiry mean", "5ms", fmtDur(hist.Mean()), fmtDur(slow(hist.Mean()))},
			{"enquiry p95", "-", fmtDur(hist.Percentile(95)), fmtDur(slow(hist.Percentile(95)))},
			{"disk I/O during enquiries", "none", fmtDur(diskIO), fmtDur(diskIO)},
		},
		Notes: []string{
			fmt.Sprintf("%d lookups over %d entries; the disk row must be zero — the paper's core claim", hist.N(), env.DBEntries),
		},
	}}, nil
}

// E2 measures the update latency breakdown: verify (explore), pickle,
// commit disk write, in-memory apply.
func E2(env Env) ([]*Table, error) {
	env = env.Defaults()
	_, d := modeledFS(env.Seed, 0)
	s, err := buildNS(env, d, nameserver.Config{})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	before := s.Stats()
	d.ResetStats()
	rng := rand.New(rand.NewSource(env.Seed + 2))
	n := env.iters(2000, 100)
	for i := 0; i < n; i++ {
		if err := s.Set(NameFor(rng.Intn(env.DBEntries)), Value(rng, env.ValueSize)); err != nil {
			return nil, err
		}
	}
	after := s.Stats()
	ds := d.Stats()

	per := func(total time.Duration) time.Duration { return total / time.Duration(n) }
	verify := per(after.VerifyTime - before.VerifyTime)
	pickle := per(after.PickleTime - before.PickleTime)
	apply := per(after.ApplyTime - before.ApplyTime)
	diskW := ds.ModeledIO / time.Duration(n)
	total1987 := slow(verify) + slow(pickle) + slow(apply) + diskW

	return []*Table{{
		ID:     "E2",
		Title:  "update latency breakdown",
		Header: []string{"phase", "paper (1987)", "measured CPU", "1987-equivalent"},
		Rows: [][]string{
			{"explore (verify preconditions)", "6ms", fmtDur(verify), fmtDur(slow(verify))},
			{"pickle update parameters", "22ms", fmtDur(pickle), fmtDur(slow(pickle))},
			{"disk write of log entry", "20ms", "(modeled)", fmtDur(diskW)},
			{"modify virtual memory", "6ms", fmtDur(apply), fmtDur(slow(apply))},
			{"total", "54ms", "-", fmtDur(total1987)},
		},
		Notes: []string{
			fmt.Sprintf("%d updates; syncs per update = %.2f (paper: exactly one disk write per update)",
				n, float64(ds.Syncs)/float64(n)),
		},
	}}, nil
}

// E3 measures checkpoint cost: pickling the whole database vs streaming it
// to disk.
func E3(env Env) ([]*Table, error) {
	env = env.Defaults()
	_, d := modeledFS(env.Seed, 0)
	s, err := buildNS(env, d, nameserver.Config{})
	if err != nil {
		return nil, err
	}
	defer s.Close()

	d.ResetStats()
	before := s.Stats()
	t0 := time.Now()
	if err := s.Checkpoint(); err != nil {
		return nil, err
	}
	wall := time.Since(t0)
	after := s.Stats()
	ds := d.Stats()

	pickleCPU := after.CheckpointPickleTime - before.CheckpointPickleTime
	return []*Table{{
		ID:     "E3",
		Title:  fmt.Sprintf("checkpoint cost (database: %s on disk)", fmtBytes(ds.BytesWritten)),
		Header: []string{"phase", "paper (1 MB, 1987)", "measured", "1987-equivalent"},
		Rows: [][]string{
			{"pickle entire database", "55s", fmtDur(pickleCPU), fmtDur(slow(pickleCPU))},
			{"disk writes", "5s", "(modeled)", fmtDur(ds.ModeledIO)},
			{"total", "~60s", fmtDur(wall), fmtDur(slow(pickleCPU) + ds.ModeledIO)},
		},
		Notes: []string{"the paper's point: checkpoint cost is dominated by pickling, not the disk"},
	}}, nil
}

// E4 measures restart time as a function of log length.
func E4(env Env) ([]*Table, error) {
	env = env.Defaults()
	lengths := []int{0, 100, 1000, 5000}
	if env.Quick {
		lengths = []int{0, 50, 200}
	}
	t := &Table{
		ID:     "E4",
		Title:  "restart time vs log length (paper: ~20 s checkpoint read + ~20 ms per log entry)",
		Header: []string{"log entries", "measured restart", "replay CPU/entry", "1987-equivalent restart", "paper formula"},
	}
	for _, n := range lengths {
		mem, d := modeledFS(env.Seed+int64(n), 0)
		s, err := buildNS(env, d, nameserver.Config{})
		if err != nil {
			return nil, err
		}
		if err := s.Checkpoint(); err != nil {
			s.Close()
			return nil, err
		}
		rng := rand.New(rand.NewSource(env.Seed + 3))
		for i := 0; i < n; i++ {
			if err := s.Set(NameFor(rng.Intn(env.DBEntries)), Value(rng, env.ValueSize)); err != nil {
				s.Close()
				return nil, err
			}
		}
		s.Close()

		d2 := vfs.NewMetered(mem, MicroVAX, 0)
		t0 := time.Now()
		s2, err := nameserver.Open(nameserver.Config{FS: d2})
		if err != nil {
			return nil, err
		}
		wall := time.Since(t0)
		st := s2.Stats()
		s2.Close()

		var perEntry time.Duration
		if st.RestartEntries > 0 {
			perEntry = st.RestartReplayTime / time.Duration(st.RestartEntries)
		}
		model := d2.Stats().ModeledIO + slow(st.RestartReplayTime) + slow(st.RestartCheckpointTime)
		paperFormula := 20*time.Second + time.Duration(n)*20*time.Millisecond
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmtDur(wall),
			fmtDur(perEntry),
			fmtDur(model),
			fmtDur(paperFormula),
		})
	}
	t.Notes = append(t.Notes,
		"restart grows linearly in log length — the availability knob of §5",
		"1987-equivalent scales checkpoint read + replay CPU by the CPU model and charges modeled disk reads")
	return []*Table{t}, nil
}

// E5 measures the sustained update rate, with and without group commit.
// The store has one commit pipeline, in which concurrent committers share
// disk writes; the paper's base design — one update at a time through the
// disk write — is an arm of the harness: coarseLocked serializes the writers.
func E5(env Env) ([]*Table, error) {
	env = env.Defaults()
	// A real-blocking disk, scaled 10× faster than 1987 so the run stays
	// short; rates scale back by the same factor.
	const scale = 0.1
	perWriter := env.iters(60, 10)

	type config struct {
		name    string
		writers int
		serial  bool // the base design: writers take turns through the whole update
		noSync  bool
	}
	configs := []config{
		{"1 writer, base design", 1, true, false},
		{"8 writers, base design", 8, true, false},
		{"8 writers, group commit", 8, false, false},
		{"8 writers, NO commit point (unsafe ablation)", 8, true, true},
	}
	t := &Table{
		ID:     "E5",
		Title:  "sustained update rate (paper: >15 tx/s; group commit is the only faster scheme)",
		Header: []string{"configuration", "tx/s (scaled disk)", "tx/s (1987-equivalent)", "syncs/update"},
	}
	for _, c := range configs {
		mem, d := modeledFS(env.Seed, scale)
		_ = mem
		s, err := buildNS(Env{Seed: env.Seed, DBEntries: 200, ValueSize: env.ValueSize, Out: env.Out, Quick: env.Quick}, d, nameserver.Config{UnsafeNoSync: c.noSync})
		if err != nil {
			return nil, err
		}
		set := s.Set
		if c.serial {
			set, _ = coarseLocked(s)
		}
		d.ResetStats()
		total := c.writers * perWriter
		t0 := time.Now()
		errCh := make(chan error, c.writers)
		for w := 0; w < c.writers; w++ {
			go func(w int) {
				rng := rand.New(rand.NewSource(env.Seed + int64(w)))
				for i := 0; i < perWriter; i++ {
					if err := set(fmt.Sprintf("w%d/k%d", w, i), Value(rng, 32)); err != nil {
						errCh <- err
						return
					}
				}
				errCh <- nil
			}(w)
		}
		for w := 0; w < c.writers; w++ {
			if err := <-errCh; err != nil {
				s.Close()
				return nil, err
			}
		}
		elapsed := time.Since(t0)
		ds := d.Stats()
		s.Close()

		rate := float64(total) / elapsed.Seconds()
		t.Rows = append(t.Rows, []string{
			c.name,
			fmt.Sprintf("%.1f", rate),
			fmt.Sprintf("%.1f", rate*scale),
			fmt.Sprintf("%.2f", float64(ds.Syncs)/float64(total)),
		})
	}
	t.Notes = append(t.Notes,
		"disk runs at 10× 1987 speed; the 1987-equivalent column scales rates back",
		"group commit raises throughput by sharing disk writes — fewer syncs per update",
		"the no-commit-point ablation is fast and loses acknowledged updates on a crash (E9 note)")
	return []*Table{t}, nil
}

// E6 compares the §2 techniques head to head on the same workload.
func E6(env Env) ([]*Table, error) {
	env = env.Defaults()
	records := env.iters(500, 60)
	updates := env.iters(200, 30)
	lookups := env.iters(200, 30)

	t := &Table{
		ID:     "E6",
		Title:  "§2 technique comparison (same records, same disk model)",
		Header: []string{"technique", "update (1987)", "enquiry (1987)", "syncs/update", "bytes/update", "crash-safe updates"},
	}
	for _, engine := range e6Engines() {
		mem, d := modeledFS(env.Seed, 0)
		_ = mem
		kv, err := engine.open(d)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(env.Seed))
		for i := 0; i < records; i++ {
			if err := kv.Update(fmt.Sprintf("key%04d", i), Value(rng, 48)); err != nil {
				return nil, fmt.Errorf("%s populate: %w", engine.name, err)
			}
		}
		// Updates.
		d.ResetStats()
		var updCPU time.Duration
		for i := 0; i < updates; i++ {
			k := fmt.Sprintf("key%04d", rng.Intn(records))
			t0 := time.Now()
			if err := kv.Update(k, Value(rng, 48)); err != nil {
				return nil, fmt.Errorf("%s update: %w", engine.name, err)
			}
			updCPU += time.Since(t0)
		}
		updDisk := d.Stats().ModeledIO
		updSyncs := d.Stats().Syncs
		updBytes := d.Stats().BytesWritten
		// Lookups.
		d.ResetStats()
		var lkCPU time.Duration
		for i := 0; i < lookups; i++ {
			k := fmt.Sprintf("key%04d", rng.Intn(records))
			t0 := time.Now()
			if _, _, err := kv.Lookup(k); err != nil {
				return nil, fmt.Errorf("%s lookup: %w", engine.name, err)
			}
			lkCPU += time.Since(t0)
		}
		lkDisk := d.Stats().ModeledIO
		kv.Close()

		upd1987 := (slow(updCPU) + updDisk) / time.Duration(updates)
		lk1987 := (slow(lkCPU) + lkDisk) / time.Duration(lookups)
		t.Rows = append(t.Rows, []string{
			engine.name,
			fmtDur(upd1987),
			fmtDur(lk1987),
			fmt.Sprintf("%.2f", float64(updSyncs)/float64(updates)),
			fmtBytes(updBytes / int64(updates)),
			engine.safety,
		})
	}
	t.Notes = append(t.Notes,
		"text file: rewrites the whole file per update; cost grows with database size",
		"ad hoc: one in-place write — fast but torn multi-page updates corrupt silently (E9)",
		"atomic commit: two disk writes — the paper's 'factor of two worse'",
		"this design: one log write per update, enquiries purely in memory")
	return []*Table{t}, nil
}

// E7 sweeps the checkpoint interval: restart time vs availability vs space.
func E7(env Env) ([]*Table, error) {
	env = env.Defaults()
	totalUpdates := env.iters(4000, 400)
	intervals := []int{totalUpdates / 40, totalUpdates / 8, totalUpdates / 2, totalUpdates + 1}
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("checkpoint frequency tradeoff over %d updates", totalUpdates),
		Header: []string{"checkpoint every", "checkpoints", "update-blocked (1987)", "final log", "restart (1987)", "peak disk"},
	}
	for _, every := range intervals {
		mem, d := modeledFS(env.Seed, 0)
		s, err := buildNS(Env{Seed: env.Seed, DBEntries: 1000, ValueSize: env.ValueSize}, d, nameserver.Config{Retain: 0})
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(env.Seed + 7))
		var blocked time.Duration
		checkpoints := 0
		var peak int64
		for i := 1; i <= totalUpdates; i++ {
			if err := s.Set(NameFor(rng.Intn(1000)), Value(rng, env.ValueSize)); err != nil {
				s.Close()
				return nil, err
			}
			if i%every == 0 {
				pre := s.Stats()
				d.ResetStats()
				if err := s.Checkpoint(); err != nil {
					s.Close()
					return nil, err
				}
				post := s.Stats()
				blocked += slow(post.CheckpointPickleTime-pre.CheckpointPickleTime) + d.Stats().ModeledIO
				checkpoints++
				if b := mem.TotalBytes(); b > peak {
					peak = b
				}
			}
		}
		finalLog := s.Stats().LogBytes
		s.Close()
		if b := mem.TotalBytes(); b > peak {
			peak = b
		}

		// Restart cost for the final state.
		d2 := vfs.NewMetered(mem, MicroVAX, 0)
		s2, err := nameserver.Open(nameserver.Config{FS: d2})
		if err != nil {
			return nil, err
		}
		st := s2.Stats()
		s2.Close()
		restart := d2.Stats().ModeledIO + slow(st.RestartReplayTime) + slow(st.RestartCheckpointTime)

		label := fmt.Sprintf("%d updates", every)
		if every > totalUpdates {
			label = "never"
		}
		t.Rows = append(t.Rows, []string{
			label,
			fmt.Sprintf("%d", checkpoints),
			fmtDur(blocked),
			fmtBytes(finalLog),
			fmtDur(restart),
			fmtBytes(peak),
		})
	}
	t.Notes = append(t.Notes,
		"frequent checkpoints: short restarts, long update-blocked stretches (updates are excluded during a checkpoint)",
		"rare checkpoints: cheap steady state, long log, long restart — the paper recommends one per night")
	return []*Table{t}, nil
}
