package bench

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/multistore"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// e14Root is the per-partition database of E14.
type e14Root struct{ Rows map[string]string }

func newE14Root() any { return &e14Root{Rows: map[string]string{}} }

// e14Put is the E14 update type.
type e14Put struct{ K, V string }

// Verify implements core.Update.
func (u *e14Put) Verify(root any) error {
	if u.K == "" {
		return errors.New("empty key")
	}
	return nil
}

// Apply implements core.Update.
func (u *e14Put) Apply(root any) error {
	root.(*e14Root).Rows[u.K] = u.V
	return nil
}

func init() {
	pickle.Register(&e14Root{})
	core.RegisterUpdate(&e14Put{})
}

// E14 evaluates the §7 extension: one large database vs the same data split
// into partitions, each its own core.Store with its own log
// (internal/multistore). The quantity at stake is the checkpoint: a
// monolithic store pickles everything and blocks all updates for the
// duration, while a partitioned set pickles one partition at a time,
// blocking only that partition. Both arms are core.Stores, measured by one
// formula.
func E14(env Env) ([]*Table, error) {
	env = env.Defaults()
	const parts = 8
	perPart := env.iters(1000, 100)
	rows := parts * perPart
	rng := rand.New(rand.NewSource(env.Seed))

	// checkpoint reports one checkpoint's update-blocked time on the 1987
	// model: its pickling CPU, slowed, plus its modeled disk time.
	// Both arms start it from a collected heap, so neither pays for the
	// other's garbage.
	checkpoint := func(st *core.Store, d *vfs.Metered) (time.Duration, error) {
		runtime.GC()
		pre := st.Stats()
		d.ResetStats()
		if err := st.Checkpoint(); err != nil {
			return 0, err
		}
		return slow(st.Stats().CheckpointPickleTime-pre.CheckpointPickleTime) + d.Stats().ModeledIO, nil
	}

	// --- monolithic: all rows in one store ---
	_, dMono := modeledFS(env.Seed, 0)
	mono, err := core.Open(core.Config{FS: dMono, NewRoot: newE14Root})
	if err != nil {
		return nil, err
	}
	defer mono.Close()
	dMono.ResetStats()
	for i := 0; i < rows; i++ {
		if err := mono.Apply(&e14Put{K: fmt.Sprintf("k%d", i), V: Value(rng, 64)}); err != nil {
			return nil, err
		}
	}
	monoSyncs := dMono.Stats().Syncs
	monoBlocked, err := checkpoint(mono, dMono)
	if err != nil {
		return nil, err
	}
	monoLeft := mono.Stats().LogEntries

	// --- partitioned: the same rows over 8 partitions, one log each ---
	_, dPart := modeledFS(env.Seed+1, 0)
	cfg := multistore.Config{FS: dPart, Partitions: map[string]func() any{}}
	for p := 0; p < parts; p++ {
		cfg.Partitions[fmt.Sprintf("p%d", p)] = newE14Root
	}
	set, err := multistore.Open(cfg)
	if err != nil {
		return nil, err
	}
	defer set.Close()
	dPart.ResetStats()
	for i := 0; i < rows; i++ {
		if err := set.Apply(fmt.Sprintf("p%d", i%parts), &e14Put{K: fmt.Sprintf("k%d", i), V: Value(rng, 64)}); err != nil {
			return nil, err
		}
	}
	partSyncs := dPart.Stats().Syncs

	// Checkpoint every partition in turn: each blocks 1/8 of the data, and
	// only that partition's updates stall.
	var worstPart time.Duration
	var partLeft int64
	for _, p := range set.Partitions() {
		st, err := set.Store(p)
		if err != nil {
			return nil, err
		}
		blocked, err := checkpoint(st, dPart)
		if err != nil {
			return nil, err
		}
		worstPart = max(worstPart, blocked)
		partLeft += st.Stats().LogEntries
	}

	perUpdate := func(syncs int64) string { return fmt.Sprintf("%.2f", float64(syncs)/float64(rows)) }
	return []*Table{{
		ID:     "E14",
		Title:  fmt.Sprintf("§7 extension: one database vs %d partitions, one log each (%d rows)", parts, rows),
		Header: []string{"quantity", "monolithic store", "partitioned set"},
		Rows: [][]string{
			{"update-blocked time per checkpoint (1987)", fmtDur(monoBlocked), fmtDur(worstPart) + " (worst partition; others run)"},
			{"blocked scope", "every update", "one partition"},
			{"syncs per update", perUpdate(monoSyncs), perUpdate(partSyncs)},
			{"log entries left after all checkpoints", fmt.Sprint(monoLeft), fmt.Sprint(partLeft)},
		},
		Notes: []string{
			"\"larger databases could be handled by considering them as multiple separate databases for the",
			"purpose of writing checkpoints. In that case, we could either use multiple log files ...\" (§7)",
			"each partition is a core.Store with its own log; a checkpoint empties only its own partition's log",
		},
	}}, nil
}
