// Package lintest is a model-based linearizability checker for the
// store's lock-free snapshot enquiries.
//
// Updates serialize on the store's update lock and many readers run
// concurrently, so the linearizability argument reduces to two obligations
// per enquiry:
//
//  1. Version consistency: the enquiry observes exactly the state produced
//     by some prefix of the committed update sequence — never a mix of two
//     versions, never a half-applied update.
//  2. Real-time bound: the observed prefix includes every update whose
//     Apply call had returned before the enquiry began, and nothing that
//     had not yet been issued when it ended.
//
// The harness makes both checkable without recording writer state: each
// writer owns a disjoint key range, and its op i deterministically sets its
// key (i mod Keys) to a value that encodes i, so every key stays
// single-writer and the expected content of a writer's keys after its first
// j ops has a closed form. A reader takes one pinned snapshot, reads every
// key from it, recovers each writer's j from the newest value in its range,
// and validates that range against the closed-form model of j — any torn or
// stale mix fails on the spot — and that the j's sum to the snapshot's Seq,
// which names exactly how many updates it holds. With several writers the
// commits overlap (they share epoch barriers), so this is also the check
// that concurrent committers are published in sequence order. The (j,
// completed-before, started-after) triple of every read and writer is
// recorded as an operation history; Check then validates the real-time
// window and per-reader monotonicity over the whole history.
package lintest

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
)

// Config sizes a Run.
type Config struct {
	// Readers is the number of concurrent reader goroutines (default 4).
	Readers int
	// Writers is the number of concurrent writer goroutines (default 1),
	// each on its own key range.
	Writers int
	// Ops is the number of updates, split evenly over the writers
	// (default 1000).
	Ops int
	// Keys is how many distinct names each writer cycles over (default 8).
	Keys int
	// Prefix roots the harness's names (default "lin"). The subtree must
	// not exist when Run starts; Run owns it for the duration.
	Prefix string
}

func (c *Config) defaults() {
	if c.Readers <= 0 {
		c.Readers = 4
	}
	if c.Writers <= 0 {
		c.Writers = 1
	}
	if c.Ops <= 0 {
		c.Ops = 1000
	}
	if c.Keys <= 0 {
		c.Keys = 8
	}
	if c.Prefix == "" {
		c.Prefix = "lin"
	}
}

// Stats reports what a Run exercised.
type Stats struct {
	Ops   uint64 // writer updates committed
	Reads uint64 // snapshot enquiries validated
}

// observation is one writer's part of one enquiry in the recorded history:
// how many of that writer's ops the snapshot held and the real-time window
// the read ran in, in that writer's op units.
type observation struct {
	j  uint64 // the writer's ops included in the snapshot
	lo uint64 // the writer's ops completed before the read began
	hi uint64 // the writer's ops started by the time the read ended
}

// Run drives Writers concurrent writers (Ops updates between them, each
// writer's sequential) against Readers concurrent snapshot enquiries on st,
// validating every enquiry against the version-ordered model as it happens
// and the full recorded history afterwards. The store's root must be the
// nameserver tree (or wrap one reachable as *nameserver.Tree via the root),
// versioned — Run fails with core.ErrNotVersioned otherwise — and must
// receive no other updates while Run is active.
func Run(st *core.Store, cfg Config) (Stats, error) {
	cfg.defaults()
	keys := make([][][]string, cfg.Writers)
	for w := range keys {
		keys[w] = make([][]string, cfg.Keys)
		for c := range keys[w] {
			keys[w][c] = []string{cfg.Prefix, "w" + strconv.Itoa(w), "k" + strconv.Itoa(c)}
		}
	}

	// The model starts empty: the harness's subtree must not exist yet.
	// Looking through a snapshot refuses an unversioned store up front.
	snap, err := st.SnapshotAt()
	if err != nil {
		return Stats{}, err
	}
	if treeFromRoot(snap.Root()).FindNode([]string{cfg.Prefix}) != nil {
		return Stats{}, fmt.Errorf("lintest: subtree %q already exists", cfg.Prefix)
	}

	base := st.AppliedSeq()
	started := make([]atomic.Uint64, cfg.Writers)
	completed := make([]atomic.Uint64, cfg.Writers)
	var stop atomic.Bool
	var reads atomic.Uint64
	// histories[r] holds reader r's reads in order, Writers consecutive
	// observations (one per writer) for each.
	histories := make([][]observation, cfg.Readers)
	errs := make(chan error, cfg.Readers+cfg.Writers)

	var wg sync.WaitGroup
	for r := 0; r < cfg.Readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			h := make([]observation, 0, 1024)
			// Every reader validates at least one snapshot even if the
			// scheduler only runs it after the writers finish (on
			// GOMAXPROCS=1 a goroutine can sit runnable for the whole
			// writer phase).
			for first := true; first || !stop.Load(); first = false {
				at := len(h)
				for w := range completed {
					h = append(h, observation{lo: completed[w].Load()})
				}
				snap, err := st.SnapshotAt()
				if err != nil {
					errs <- err
					return
				}
				m := snap.Seq()
				tree := treeFromRoot(snap.Root())
				var verr error
				var held uint64
				for w := range keys {
					if h[at+w].j, verr = checkWriter(tree, keys[w]); verr != nil {
						break
					}
					held += h[at+w].j
				}
				for w := range started {
					h[at+w].hi = started[w].Load()
				}
				if verr != nil {
					errs <- verr
					return
				}
				if m < base || held != m-base {
					errs <- fmt.Errorf("lintest: snapshot at seq %d (run base %d) holds %d of the run's updates", m, base, held)
					return
				}
				reads.Add(1)
				// Yield so the writers are never starved by spinning
				// readers: snapshot reads block on nothing, so on a small
				// GOMAXPROCS the run queue is all readers, all runnable.
				runtime.Gosched()
			}
			histories[r] = h
		}(r)
	}

	var wwg sync.WaitGroup
	for w := 0; w < cfg.Writers; w++ {
		wwg.Add(1)
		go func(w int) {
			defer wwg.Done()
			for i := uint64(1); i <= uint64(cfg.Ops/cfg.Writers); i++ {
				started[w].Store(i)
				u := &nameserver.SetValue{Path: keys[w][i%uint64(cfg.Keys)], Value: valueAt(i)}
				if err := st.Apply(u); err != nil {
					errs <- fmt.Errorf("lintest: writer %d op %d: %w", w, i, err)
					return
				}
				completed[w].Store(i)
				// Yield between ops for the same fairness reason as the
				// readers: the history is only interesting if reads
				// interleave the writes.
				runtime.Gosched()
			}
		}(w)
	}
	wwg.Wait()
	stop.Store(true)
	wg.Wait()
	close(errs)
	if err, failed := <-errs; failed {
		return Stats{}, err
	}
	var ops uint64
	for w := range completed {
		ops += completed[w].Load()
	}

	if err := checkHistory(histories, cfg.Writers); err != nil {
		return Stats{}, err
	}
	return Stats{Ops: ops, Reads: reads.Load()}, nil
}

// valueAt is the value writer op i writes: it encodes i so a read can
// recover which write it is seeing.
func valueAt(i uint64) string { return "v" + strconv.FormatUint(i, 10) }

// lastWrite reports the last writer op ≤ j that wrote key index c (keys
// cycle round-robin), or 0 when none has.
func lastWrite(j uint64, c, keys int) uint64 {
	if j == 0 {
		return 0
	}
	r := j % uint64(keys)
	diff := (r + uint64(keys) - uint64(c)%uint64(keys)) % uint64(keys)
	if diff >= j {
		return 0 // would reach before op 1
	}
	return j - diff
}

// checkWriter validates one writer's key range in a snapshot tree and
// reports j, how many of that writer's ops the snapshot holds. j is read
// off the newest value in the range (op j wrote it); every key must then
// hold the write the closed-form model of j names (write 0 = unwritten).
// Reading all the keys from one snapshot is what makes the check complete:
// a snapshot mixing two versions cannot satisfy the model at any single j,
// because each op changes exactly one key and the keys cycle.
func checkWriter(t *nameserver.Tree, keys [][]string) (uint64, error) {
	var j uint64
	found := make([]uint64, len(keys)) // the op whose write each key holds
	for c, k := range keys {
		if n := t.FindNode(k); n != nil && n.HasValue {
			i, err := strconv.ParseUint(n.Value[1:], 10, 64)
			if err != nil || n.Value != valueAt(i) {
				return 0, fmt.Errorf("lintest: key %v holds %q, which no writer op wrote", k, n.Value)
			}
			found[c] = i
			j = max(j, i)
		}
	}
	for c, i := range found {
		if want := lastWrite(j, c, len(keys)); i != want {
			return 0, fmt.Errorf("lintest: at version %d key %v should hold write %d, found write %d", j, keys[c], want, i)
		}
	}
	return j, nil
}

// checkHistory validates the recorded operation history, writer by writer:
// every read's version must fall inside its real-time window (reads never
// travel back before a completed write, never ahead of an issued one), and
// each reader's versions must be monotone (a reader never observes time
// moving backwards).
func checkHistory(histories [][]observation, writers int) error {
	prev := make([]uint64, writers)
	for r, h := range histories {
		for w := range prev {
			prev[w] = 0
		}
		for i, o := range h {
			read, w := i/writers, i%writers
			if o.j < o.lo {
				return fmt.Errorf("lintest: reader %d read %d observed writer %d at version %d, but %d of its writes had completed before the read began (stale read)", r, read, w, o.j, o.lo)
			}
			if o.j > o.hi {
				return fmt.Errorf("lintest: reader %d read %d observed writer %d at version %d, but only %d of its writes had been issued (read from the future)", r, read, w, o.j, o.hi)
			}
			if o.j < prev[w] {
				return fmt.Errorf("lintest: reader %d went backwards on writer %d: version %d after %d", r, w, o.j, prev[w])
			}
			prev[w] = o.j
		}
	}
	return nil
}

// treeFromRoot extracts the nameserver tree from a store root: either the
// tree itself or a root keeping one (nameserver.TreeOf).
func treeFromRoot(root any) *nameserver.Tree {
	t, err := nameserver.TreeOf(root)
	if err != nil {
		panic(fmt.Sprintf("lintest: %v", err))
	}
	return t
}

// ErrNotVersioned re-exports the store's sentinel for callers gating on
// versioned-read support.
var ErrNotVersioned = core.ErrNotVersioned
