// Package core is the paper's contribution: a small-database engine that
// keeps the entire database as an ordinary strongly typed data structure in
// virtual memory, records each update incrementally in a redo log on disk,
// and occasionally checkpoints the whole structure — recovering from
// crashes by reloading the checkpoint and replaying the log (§3).
//
// The shape of every operation follows the paper:
//
//   - An enquiry (View) is purely a lookup in the virtual memory structure
//     — under a shared lock, or lock-free on a published version when the
//     root is a VersionedRoot; the disk is not involved.
//   - An update (Apply) proceeds in three steps under the three-mode lock:
//     (1) verify preconditions against the in-memory data under the update
//     lock; (2) pickle the update's parameters and append them to the log —
//     the disk write that is the commit point; (3) upgrade to exclusive and
//     apply the mutation to the in-memory structure. Every update takes the
//     same pipeline (commit); no update is visible before it is durable.
//   - A checkpoint (Checkpoint) pickles the entire root under the update
//     lock — in memory only — then writes it to disk and installs it with
//     the version-file protocol in the background while updates keep
//     committing (the WAL mirror-window protocol; see checkpointNonBlocking
//     and DESIGN.md), finally retargeting the log in a brief critical
//     section. Every store runs this one protocol; a root that offers no
//     versions is pickled under the update lock instead of from a snapshot.
//   - Open recovers: find the current checkpoint, load it, replay the log.
//
// The database root and every update type are ordinary Go values; the
// pickle package converts them to and from bytes, so — as the paper says of
// its name server — there is "no manually written code for casting values
// into low level disk or network bit patterns".
package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"smalldb/internal/checkpoint"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/sulock"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

// An Update is a single-shot transaction: all of its parameters are
// gathered before it commits, and no intermediate state is ever visible
// (§1: "there are no update transactions composed of multiple client
// actions").
//
// Concrete update types must be exported structs registered with
// RegisterUpdate so they can be pickled into log entries; their exported
// fields are the update's parameters. Fields computed by Verify for Apply's
// use should be tagged `pickle:"-"`.
type Update interface {
	// Verify checks the update's preconditions (consistency invariants,
	// access controls) against the database root. It runs under the
	// update lock — concurrent enquiries are active — and must not
	// mutate anything.
	Verify(root any) error
	// Apply performs the mutation. It runs under the exclusive lock,
	// after the update has committed to the log, and during replay. It
	// must succeed on any state on which Verify succeeded; an error here
	// is a programming bug that poisons the store (the log and memory
	// now disagree).
	Apply(root any) error
}

// RegisterUpdate registers an update type for pickling, under the type's
// canonical name. Every update type must be registered by both writers and
// recoverers (init functions are the natural place).
func RegisterUpdate(u Update) { pickle.Register(u) }

// logTable is the type table at the head of the log files this process
// creates: logRecord and every registered update type.
func logTable() *pickle.Table { return pickle.NewTable(&logRecord{}) }

// logRecord is the pickled form of one log entry: the update in an
// interface field, so the concrete type travels with it.
type logRecord struct {
	U Update
}

// logDecoder decodes a log file's entries against the table its head holds.
func logDecoder(head []byte) (func(seq uint64, payload []byte) (Update, error), error) {
	tab, err := pickle.ParseTable(head)
	if err != nil {
		return nil, fmt.Errorf("core: log head unreadable: %w", err)
	}
	return func(seq uint64, payload []byte) (Update, error) {
		var rec logRecord
		if err := tab.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("core: log entry %d undecodable: %w", seq, err)
		}
		if rec.U == nil {
			return nil, fmt.Errorf("core: log entry %d holds no update", seq)
		}
		return rec.U, nil
	}, nil
}

// Config configures a Store.
type Config struct {
	// FS is the directory holding the checkpoint and log files.
	FS vfs.FS
	// NewRoot creates an empty database root; used when the directory is
	// uninitialized. The root's concrete type must be registered with
	// pickle.Register.
	NewRoot func() any
	// Retain is how many previous checkpoint+log pairs to keep for
	// hard-error recovery (§4). 0 reproduces the paper's base protocol.
	Retain int
	// SkipDamagedLogEntries makes recovery hop over unreadable log
	// entries instead of failing, for applications whose updates are
	// independent (§4).
	SkipDamagedLogEntries bool
	// Deterministic makes the store's file-operation order a function of
	// the calls made on it: a due compaction runs synchronously inside the
	// Checkpoint call that made it due instead of on a background
	// goroutine. It exists for the crash sweeps, which replay a run up to a
	// chosen file operation.
	Deterministic bool
	// MaxLogBytes, when > 0, triggers an automatic checkpoint after an
	// update leaves the log larger than this.
	MaxLogBytes int64
	// MaxLogEntries, when > 0, triggers an automatic checkpoint after
	// the log holds more than this many entries.
	MaxLogEntries int64
	// ArchiveLogs keeps every log as archive-logfileN when its version
	// is superseded, instead of deleting it — the §4 audit trail. The
	// History method replays it.
	ArchiveLogs bool
	// UnsafeNoSync skips the sync on every log append: there is no
	// commit point, and a crash can lose acknowledged updates. It exists
	// only as an ablation (E5/E9) quantifying what the paper's one disk
	// write per update buys and costs. It selects no other code path:
	// checkpoints run the same mirror-window protocol, whose file order
	// still recovers a prefix of the updates at every crash point.
	UnsafeNoSync bool
	// MaxDeltaChain bounds the delta chain: once a checkpoint would make
	// the chain (full base + deltas) longer than this, a compaction
	// rewrites the chain into a fresh full image. 0 means the default
	// (DefaultMaxDeltaChain). Longer chains mean less checkpoint I/O and
	// more restart work.
	MaxDeltaChain int
	// MaxDeltaRatio bounds the chain's cumulative delta bytes relative to
	// its base image: past base*MaxDeltaRatio a compaction runs, and any
	// single delta that large is written as a full image instead (at that
	// point the delta machinery saves nothing). 0 means the default
	// (DefaultMaxDeltaRatio).
	MaxDeltaRatio float64
	// Obs, when non-nil, receives the store's metrics (core_*), the
	// log's (wal_*), the checkpoint protocol's (checkpoint_*) and the
	// three-mode lock's (core_lock_*), for export through the debug
	// endpoint. The store keeps its phase histograms regardless, so
	// Stats() always carries percentiles.
	Obs *obs.Registry
	// Tracer, when non-nil, receives structured events: update.commit,
	// checkpoint.start/finish, restart.replay, log.flush, lock.wait.
	Tracer obs.Tracer
}

// Stats is a snapshot of the store's cumulative instrumentation. The phase
// timers decompose an update exactly as the paper's §5 does: exploring the
// structure (verify), converting parameters to bits (pickle), the disk
// write of the log entry (commit), and modifying the structure (apply).
// The cumulative sums are kept for compatibility; the Dist fields carry the
// full distributions (histogram snapshots in nanoseconds) so callers can
// read p50/p90/p99/max per phase, not just means.
type Stats struct {
	Enquiries   uint64
	Updates     uint64
	Checkpoints uint64
	// DeltaCheckpoints counts the checkpoints (included in Checkpoints)
	// that wrote a delta file instead of a full image; Compactions counts
	// the full checkpoints forced to collapse a delta chain.
	DeltaCheckpoints uint64
	Compactions      uint64
	// LastCheckpointBytes is the pickled size of the most recent
	// checkpoint file — the I/O a checkpoint actually cost, which with
	// deltas is proportional to churn, not root size. ChainLength is the
	// current chain's file count (1 = a lone full image).
	LastCheckpointBytes int64
	ChainLength         int

	VerifyTime time.Duration
	PickleTime time.Duration
	CommitTime time.Duration
	ApplyTime  time.Duration

	// Phase latency distributions, in nanoseconds: verify, pickle and apply
	// per update; commit — log enqueue plus durability wait — per
	// Apply/ApplyBatch call, because a batch's updates share one wait.
	VerifyDist obs.Snapshot
	PickleDist obs.Snapshot
	CommitDist obs.Snapshot
	ApplyDist  obs.Snapshot

	CheckpointPickleTime time.Duration
	CheckpointIOTime     time.Duration
	// CheckpointStallTime is the update-lock hold time attributable to
	// checkpoints: the log flush plus, for an unversioned root, the
	// in-memory pickle.
	CheckpointStallTime time.Duration
	// CheckpointSwitchTime covers the version-switch protocol: new log
	// creation, mirror drain, newversion commit, install and retention
	// cleanup — everything past the checkpoint file write.
	CheckpointSwitchTime time.Duration

	// Per-checkpoint phase distributions, in nanoseconds.
	CheckpointPickleDist obs.Snapshot
	CheckpointIODist     obs.Snapshot
	CheckpointStallDist  obs.Snapshot
	CheckpointSwitchDist obs.Snapshot

	// Restart decomposition: RestartCheckpointTime is reading the chain's
	// full base image (proportional to root size), RestartDeltaTime is
	// reading and applying the chain's deltas (proportional to churn since
	// the base), RestartReplayTime is the log replay. The scaling claim
	// (cost proportional to churn, not root size) is about the delta and
	// replay components; the base read is paid once per chain, not per
	// restart of a busy store (compaction refreshes it).
	RestartCheckpointTime time.Duration
	RestartDeltaTime      time.Duration
	RestartDeltaBytes     int64
	RestartDeltasApplied  int
	RestartReplayTime     time.Duration
	RestartEntries        int
	RestartSkippedDamaged int
	RestartTornTail       bool
	RestartUsedFallback   bool

	LogBytes   int64
	LogEntries int64
	AppliedSeq uint64
}

// pendingPub is one update applied in memory but not yet acknowledged
// durable by the log: its captured version view waits in the publication
// queue until the durable frontier covers its sequence.
type pendingPub struct {
	seq  uint64
	view any
}

// Store is an open small database.
type Store struct {
	cfg  Config
	lock sulock.Lock

	// root is the working (mutable) database root, guarded by lock:
	// updates mutate it under exclusive mode. With a versioned root,
	// enquiries never touch it — they read the published version below —
	// and every mutation is copy-on-write with respect to published
	// views. With an unversioned root, enquiries read it under shared.
	root any

	// versioned reports that root implements VersionedRoot: enquiries are
	// lock-free reads of vs's published version.
	versioned bool
	vs        versionSet
	vm        versionMetrics

	// enquiries counts Views on an atomic so the lock-free read path
	// never takes statMu.
	enquiries atomic.Uint64

	// pubMu guards the deferred-publication queue: views captured under
	// the exclusive lock, published in sequence order once the log
	// acknowledges them durable.
	pubMu      sync.Mutex
	pendingPub []pendingPub

	// log is the redo log. Open sets it once; a checkpoint retargets it to
	// the new version's file in place (FinishMirror), never replaces it.
	log *wal.Log

	// ownTab is the type table this process writes at the head of every log
	// file it creates. logTab is the one the next entry is pickled against:
	// the table of the file the log appends to, nil while that file has no
	// head or a mirror window spans two files whose heads differ.
	ownTab *pickle.Table
	logTab atomic.Pointer[pickle.Table]

	// mu guards the fields below (log/checkpoint administration).
	mu         sync.Mutex
	cpState    checkpoint.State
	applied    uint64 // sequence of the last update applied to root
	logEntries int64
	poisoned   error
	closed     bool
	lastCPErr  error                 // outcome of the most recent checkpoint attempt
	cpHook     func(CheckpointStage) // test instrumentation; see SetCheckpointStageHook

	checkpointing atomic.Bool    // auto-checkpoint in flight
	compacting    atomic.Bool    // background compaction in flight
	cpMu          sync.Mutex     // serializes whole checkpoints end to end
	cpWG          sync.WaitGroup // in-flight auto-checkpoint goroutines; Close waits

	// Delta-checkpoint state, guarded by cpMu (set without it only during
	// Open, before the store is shared). cpPrevView is the published view
	// pinned at the last successful checkpoint — the base the next delta
	// diffs against; nil means the next checkpoint must be full. cpPrevSeq
	// is that checkpoint's NextSeq. Retaining the view costs memory
	// proportional to the churn since it was pinned (the COW discipline
	// shares everything unchanged).
	cpPrevView any
	cpPrevSeq  uint64

	// Chain accounting, read by compactionDue off the checkpoint path.
	baseBytes  atomic.Int64 // pickled size of the chain's full base image
	deltaBytes atomic.Int64 // cumulative delta sizes since that base

	// statMu guards stats. Every write to stats — including the
	// restart-time fields set during Open — goes through recordStats, so
	// Stats() can be called concurrently with anything.
	statMu sync.Mutex
	stats  Stats

	// hist holds the store-private phase histograms backing the Dist
	// fields of Stats; always non-nil, shared with cfg.Obs when set.
	hist struct {
		verify, pickle, commit, apply *obs.Histogram
		cpPickle, cpIO                *obs.Histogram
		cpStall, cpSwitch             *obs.Histogram
	}
	// ctr mirrors the headline counters into cfg.Obs (nil-safe when no
	// registry is configured).
	ctr struct {
		enquiries, updates, checkpoints *obs.Counter
		cpErrors, cpMirrored            *obs.Counter
		deltaCheckpoints, compactions   *obs.Counter
	}
	cpInflight *obs.Gauge
	tracer     obs.Tracer

	stopTimer chan struct{}
	timerWG   sync.WaitGroup
}

// initObs builds the store's instrumentation: private phase histograms
// (always), plus registration into cfg.Obs and lock instrumentation when a
// registry or tracer is configured.
func (s *Store) initObs() {
	s.tracer = s.cfg.Tracer
	reg := s.cfg.Obs
	for _, h := range []struct {
		p    **obs.Histogram
		name string
	}{{&s.hist.verify, "core_update_verify_ns"}, {&s.hist.pickle, "core_update_pickle_ns"},
		{&s.hist.commit, "core_update_commit_ns"}, {&s.hist.apply, "core_update_apply_ns"},
		{&s.hist.cpPickle, "core_checkpoint_pickle_ns"}, {&s.hist.cpIO, "core_checkpoint_io_ns"},
		{&s.hist.cpStall, "checkpoint_stall_ns"}, {&s.hist.cpSwitch, "core_checkpoint_switch_ns"}} {
		*h.p = obs.NewHistogram()
		reg.Register(h.name, *h.p)
	}
	s.ctr.enquiries = reg.Counter("core_enquiries")
	s.ctr.updates = reg.Counter("core_updates")
	s.ctr.checkpoints = reg.Counter("core_checkpoints")
	s.ctr.cpErrors = reg.Counter("core_checkpoint_errors")
	s.ctr.cpMirrored = reg.Counter("checkpoint_mirrored_entries")
	s.ctr.deltaCheckpoints = reg.Counter("core_delta_checkpoints")
	s.ctr.compactions = reg.Counter("core_compactions")
	s.cpInflight = reg.Gauge("core_checkpoint_inflight")
	if reg != nil {
		reg.Register("core_log_bytes", func() any {
			s.mu.Lock()
			defer s.mu.Unlock()
			if s.log == nil {
				return int64(0)
			}
			return s.log.Size()
		})
		reg.Register("core_log_entries", func() any {
			s.mu.Lock()
			defer s.mu.Unlock()
			return s.logEntries
		})
		reg.Register("core_applied_seq", func() any { return s.AppliedSeq() })
		reg.Register("core_checkpoint_version", func() any { return s.Version() })
		reg.Register("core_checkpoint_chain_len", func() any {
			s.mu.Lock()
			defer s.mu.Unlock()
			return int64(s.cpState.Version - s.cpState.Base + 1)
		})
		reg.Register("pickle_plan_compiles", func() any {
			st := pickle.Stats()
			return st.EncPlanCompiles + st.DecPlanCompiles
		})
		reg.Register("pickle_enc_pool_hit_rate", func() any { return poolHitRate(pickle.Stats().EncPoolGets, pickle.Stats().EncPoolMisses) })
		reg.Register("pickle_dec_pool_hit_rate", func() any { return poolHitRate(pickle.Stats().DecPoolGets, pickle.Stats().DecPoolMisses) })
	}
	s.initVersionObs(reg)
	if reg != nil || s.tracer != nil {
		// With lock-free enquiries the shared mode is never acquired on
		// this lock; skip its wait/contention series so /stats does not
		// export dead metrics.
		var opts []sulock.InstrumentOption
		if s.versioned {
			opts = append(opts, sulock.SkipShared())
		}
		s.lock.Instrument(reg, "core", s.tracer, opts...)
	}
}

// poolHitRate renders a pool's hit rate in percent (gets that found warm
// state), or -1 before any get.
func poolHitRate(gets, misses uint64) any {
	if gets == 0 {
		return -1
	}
	misses = min(misses, gets) // counters are read racily; clamp
	return int64((gets - misses) * 100 / gets)
}

// recordStats is the single mutation path for s.stats; all writers funnel
// through it so the lock discipline lives in one place.
func (s *Store) recordStats(fn func(st *Stats)) {
	s.statMu.Lock()
	fn(&s.stats)
	s.statMu.Unlock()
}

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("core: store is closed")

// header is the first value in every full checkpoint file: the sequence
// number the log that accompanies the checkpoint starts at, then the root.
type header struct {
	NextSeq uint64
	Root    any
}

// deltaHeader is the sole value in a delta checkpoint file (checkpointN.d):
// the chain link plus the root delta. Version and Parent pin the file to
// its place in the chain (Parent is always Version-1; recovery verifies
// both against the file name). FromSeq..NextSeq-1 is the sequence range the
// delta covers: FromSeq is the parent checkpoint's NextSeq, NextSeq is this
// one's. Subtrees counts the delta's subtree operations, for inspection
// (cmd/logdump -checkpoint). Delta's concrete type is the root's own
// (registered) delta representation.
type deltaHeader struct {
	Version  uint64
	Parent   uint64
	FromSeq  uint64
	NextSeq  uint64
	Subtrees int
	Delta    any
}

// Open recovers a store from cfg.FS, initializing an empty database if the
// directory is virgin. The recovery sequence is the paper's: determine the
// current checkpoint (discarding partial ones), read it, replay the log.
func Open(cfg Config) (*Store, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("core: Config.FS is required")
	}
	if cfg.NewRoot == nil {
		return nil, fmt.Errorf("core: Config.NewRoot is required")
	}
	s := &Store{cfg: cfg, ownTab: logTable()}
	// Probe a throwaway root: versioning is a property of the root type,
	// and initObs needs it to pick the lock instrumentation.
	_, s.versioned = cfg.NewRoot().(VersionedRoot)
	s.initObs()

	st, err := checkpoint.RecoverWith(cfg.FS, s.cpOpts())
	if errors.Is(err, checkpoint.ErrNotInitialized) {
		return s.initFresh()
	}
	if err != nil {
		return nil, err
	}
	if err := s.load(st); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *Store) initFresh() (*Store, error) {
	root := s.cfg.NewRoot()
	var baseBytes int64
	st, err := checkpoint.Init(s.cfg.FS, func(w io.Writer) error {
		cw := &countingWriter{w: w}
		werr := pickle.Write(cw, &header{NextSeq: 1, Root: root})
		baseBytes = cw.n
		return werr
	}, s.ownTab.Bytes())
	if err != nil {
		return nil, err
	}
	l, err := s.openLog(st.LogName(), 1)
	if err != nil {
		return nil, err
	}
	s.root = root
	s.log = l
	s.cpState = st
	s.applied = 0
	s.baseBytes.Store(baseBytes)
	s.seedDeltaBase(root, 1)
	s.queuePublish(0)
	s.publishDurable(0)
	return s, nil
}

// seedDeltaBase pins the view the next checkpoint will diff against, when
// the root type supports delta checkpoints at all.
func (s *Store) seedDeltaBase(root any, nextSeq uint64) {
	if dr, ok := root.(DeltaRoot); ok {
		s.cpPrevView = dr.SnapshotView()
		s.cpPrevSeq = nextSeq
	}
}

// load reads the current checkpoint chain (full base plus deltas) and
// replays its log. If the chain is unreadable (hard error) and a previous
// version is retained, it falls back: load the previous version's chain,
// replay the previous log, then replay the current log (§4).
func (s *Store) load(st checkpoint.State) error {
	replayOpts := wal.ReplayOptions{Repair: true, SkipDamaged: s.cfg.SkipDamagedLogEntries, Obs: s.cfg.Obs}

	hdr, cs, err := s.readChain(st.Chain())
	var res wal.ReplayResult
	usedFallback := false
	if err == nil {
		// Pin the chain's state — exactly what on-disk version st.Version
		// records, before replay mutates the root — so the first
		// post-restart checkpoint can chain a delta onto it.
		s.seedDeltaBase(hdr.Root, hdr.NextSeq)
		res, err = s.replayInto(hdr, st.LogName(), hdr.NextSeq, replayOpts)
	}
	if err != nil && len(st.Retained) > 0 {
		// Hard-error fallback through the newest retained version. The
		// next checkpoint after a fallback is always full: the on-disk
		// current version is damaged and must not become a delta parent.
		s.cpPrevView, s.cpPrevSeq = nil, 0
		prev := st.Retained[len(st.Retained)-1]
		chain, cerr := checkpoint.ChainOf(s.cfg.FS, prev)
		if cerr != nil {
			return fmt.Errorf("core: current checkpoint unusable (%v) and previous one too: %w", err, cerr)
		}
		var ferr error
		hdr, cs, ferr = s.readChain(chain)
		if ferr != nil {
			return fmt.Errorf("core: current checkpoint unusable (%v) and previous one too: %w", err, ferr)
		}
		prevRes, ferr := s.replayInto(hdr, checkpoint.LogName(prev), hdr.NextSeq, replayOpts)
		if ferr != nil {
			return fmt.Errorf("core: current checkpoint unusable (%v) and previous log too: %w", err, ferr)
		}
		res, ferr = s.replayInto(hdr, st.LogName(), prevRes.NextSeq, replayOpts)
		if ferr != nil {
			return fmt.Errorf("core: current checkpoint unusable (%v) and current log too: %w", err, ferr)
		}
		res.Entries += prevRes.Entries
		res.Damaged += prevRes.Damaged
		usedFallback = true
	} else if err != nil {
		return err
	}

	l, err := s.openLog(st.LogName(), res.NextSeq)
	if err != nil {
		return err
	}
	s.baseBytes.Store(cs.baseBytes)
	s.deltaBytes.Store(cs.deltaBytes)
	s.root = hdr.Root
	s.log = l
	s.cpState = st
	s.applied = res.NextSeq - 1
	s.logEntries = int64(res.Entries)
	s.queuePublish(s.applied)
	s.publishDurable(s.applied)
	s.recordStats(func(stats *Stats) {
		stats.RestartCheckpointTime = cs.baseTime
		stats.RestartDeltaTime = cs.deltaTime
		stats.RestartDeltaBytes = cs.deltaBytes
		stats.RestartDeltasApplied = cs.deltas
		stats.RestartEntries = res.Entries
		stats.RestartSkippedDamaged = res.Damaged
		stats.RestartTornTail = res.Truncated
		stats.RestartUsedFallback = usedFallback
		stats.AppliedSeq = s.applied
	})
	return nil
}

// chainStats decomposes what loading a chain cost: the full base image
// (proportional to root size) versus the deltas (proportional to churn).
type chainStats struct {
	baseTime   time.Duration
	baseBytes  int64
	deltaTime  time.Duration
	deltaBytes int64
	deltas     int
}

// readChain loads a checkpoint chain — chain[0] is the full base image,
// the rest deltas applied in version order — returning the reconstructed
// header (NextSeq is the last link's).
func (s *Store) readChain(chain []uint64) (*header, chainStats, error) {
	var cs chainStats
	hdr, n, dur, err := s.readCheckpoint(checkpoint.CheckpointName(chain[0]))
	if err != nil {
		return nil, cs, err
	}
	cs.baseBytes, cs.baseTime = n, dur
	for _, w := range chain[1:] {
		dh, n, dur, err := s.readDelta(checkpoint.DeltaName(w), w)
		if err != nil {
			return nil, cs, err
		}
		dr, ok := hdr.Root.(DeltaRoot)
		if !ok {
			return nil, cs, fmt.Errorf("core: checkpoint chain holds deltas but root type %T cannot apply them", hdr.Root)
		}
		if dh.FromSeq != hdr.NextSeq {
			return nil, cs, fmt.Errorf("core: delta checkpoint %d covers sequences from %d but its parent ends at %d", w, dh.FromSeq, hdr.NextSeq)
		}
		if err := dr.ApplyDelta(dh.Delta); err != nil {
			return nil, cs, fmt.Errorf("core: applying delta checkpoint %d: %w", w, err)
		}
		hdr.NextSeq = dh.NextSeq
		cs.deltaBytes += n
		cs.deltaTime += dur
		cs.deltas++
	}
	return hdr, cs, nil
}

// readPickled decodes the one value in the named checkpoint file into ptr,
// prefetching the file ahead of the decoder so disk reads overlap decode CPU
// (the decoder adds its own small-read buffering on top). It reports the
// bytes read and the time taken.
func (s *Store) readPickled(name, what string, ptr any) (int64, time.Duration, error) {
	start := time.Now()
	f, err := s.cfg.FS.Open(name)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	ra := checkpoint.NewReadAhead(f)
	defer ra.Close()
	cr := &countingReader{r: ra}
	if err := pickle.Read(cr, ptr); err != nil {
		return 0, 0, fmt.Errorf("core: reading %s %s: %w", what, name, err)
	}
	return cr.n, time.Since(start), nil
}

func (s *Store) readCheckpoint(name string) (*header, int64, time.Duration, error) {
	var hdr header
	n, dur, err := s.readPickled(name, "checkpoint", &hdr)
	if err == nil && (hdr.Root == nil || hdr.NextSeq == 0) {
		err = fmt.Errorf("core: checkpoint %s is malformed", name)
	}
	return &hdr, n, dur, err
}

// readDelta reads one delta checkpoint file and validates its chain link
// against the version its name claims.
func (s *Store) readDelta(name string, want uint64) (*deltaHeader, int64, time.Duration, error) {
	var dh deltaHeader
	n, dur, err := s.readPickled(name, "delta checkpoint", &dh)
	if err == nil && (dh.Version != want || dh.Parent != want-1 || dh.NextSeq == 0 || dh.Delta == nil) {
		err = fmt.Errorf("core: delta checkpoint %s is malformed (version %d, parent %d)", name, dh.Version, dh.Parent)
	}
	return &dh, n, dur, err
}

// replayUpdates replays the named log from firstSeq (0: wherever it starts),
// decoding each entry against the file's head and handing it to fn in
// sequence order.
func replayUpdates(fs vfs.FS, name string, firstSeq uint64, opts wal.ReplayOptions, fn func(seq uint64, u Update) error) (wal.ReplayResult, error) {
	head, err := wal.ReadHead(fs, name)
	if err != nil {
		return wal.ReplayResult{NextSeq: firstSeq}, err
	}
	decode, err := logDecoder(head)
	if err != nil {
		return wal.ReplayResult{NextSeq: firstSeq}, err
	}
	return wal.Replay(fs, name, firstSeq, opts, func(seq uint64, payload []byte) error {
		u, err := decode(seq, payload)
		if err != nil {
			return err
		}
		return fn(seq, u)
	})
}

// replayInto replays the named log onto hdr.Root, returning the replay
// result. When the log was replayed after a fallback checkpoint, firstSeq
// overrides the header's.
func (s *Store) replayInto(hdr *header, logName string, firstSeq uint64, opts wal.ReplayOptions) (wal.ReplayResult, error) {
	// Progress events let an operator watch a long restart converge.
	const progressEvery = 10000
	start := time.Now()
	res, err := replayUpdates(s.cfg.FS, logName, firstSeq, opts, func(seq uint64, u Update) error {
		if err := u.Apply(hdr.Root); err != nil {
			return fmt.Errorf("core: replaying entry %d: %w", seq, err)
		}
		if n := seq - firstSeq + 1; n%progressEvery == 0 {
			obs.Emit(s.tracer, obs.Event{Name: "replay.progress", Dur: time.Since(start), Attrs: []obs.Attr{
				obs.A("log", logName), obs.A("entries", n),
			}})
		}
		return nil
	})
	dur := time.Since(start)
	s.recordStats(func(st *Stats) { st.RestartReplayTime += dur })
	obs.Emit(s.tracer, obs.Event{Name: "restart.replay", Dur: dur, Err: err, Attrs: []obs.Attr{
		obs.A("log", logName), obs.A("entries", res.Entries), obs.A("damaged", res.Damaged), obs.A("torn", res.Truncated),
	}})
	return res, err
}

// View runs fn on the database root: the paper's enquiry. fn must not
// mutate the root, and must not retain references to it after returning.
//
// With a versioned root (see VersionedRoot) the enquiry is lock-free: fn
// runs on the current published version, loaded through one atomic
// pointer read, with no blocking and no exclusion window — updates and
// checkpoints proceed underneath it. The view is consistent as of one
// committed — durable — sequence number.
//
// With an unversioned root fn runs on the working root under the shared
// lock, excluded during each update's in-memory apply, exactly the paper's
// protocol.
func (s *Store) View(fn func(root any) error) error {
	if v := s.vs.pub.Load(); v != nil {
		s.enquiries.Add(1)
		s.ctr.enquiries.Inc()
		return fn(v.root)
	}
	s.lock.Shared()
	defer s.lock.SharedUnlock()
	s.enquiries.Add(1)
	s.ctr.enquiries.Inc()
	s.vm.locked.Inc()
	return fn(s.root)
}

// Apply runs one update through the paper's three-step protocol (§3):
// verify, log write — the commit point — and apply. On return the update
// is durable, applied, and visible to enquiries.
func (s *Store) Apply(u Update) error {
	_, err := s.commit([]Update{u}, obs.SpanContext{})
	return err
}

// ApplyTraced is Apply carrying a trace context. When sc belongs to a
// trace and the store has a tracer, the update becomes an "update.commit"
// span under sc with a child span per phase — lock wait, verify, pickle,
// WAL append, the durability sync (plus checkpoint.mirror when a mirror
// window made it a dual write) and apply. An invalid sc degrades to
// exactly the untraced path.
func (s *Store) ApplyTraced(u Update, sc obs.SpanContext) error {
	_, err := s.commit([]Update{u}, sc)
	return err
}

// ApplyBatch commits a batch of updates through one pass of the pipeline:
// one lock acquisition, one published version and — with a versioned root —
// one log sync covering the whole batch. The batch is NOT atomic: if
// update i fails to verify, updates [0, i) are already committed and the
// error is returned; callers needing all-or-nothing semantics must
// pre-validate. Locked enquiries are excluded from the first apply to the
// last (lock-free ones proceed regardless). An unversioned root pays one
// sync per update instead, all but the first under the exclusive lock, so
// that a failed sync leaves nothing undurable in view; no caller batches
// onto one (the nameserver and replica roots are versioned). The
// crashtest harness uses batches to put several updates behind one sync;
// servers can use them to amortize lock traffic on bulk loads.
func (s *Store) ApplyBatch(us []Update) error {
	_, err := s.commit(us, obs.SpanContext{})
	return err
}

// ApplyBatchTraced is ApplyBatch carrying a trace context (see ApplyTraced)
// and reporting how many updates it committed. An error with the store still
// usable is a refusal of us[applied] — its Verify failed — and a caller that
// can classify the refusal may resume with us[applied+1:]. An error that
// poisoned the store reports 0: nothing the call did is acknowledged.
func (s *Store) ApplyBatchTraced(us []Update, sc obs.SpanContext) (applied int, err error) {
	return s.commit(us, sc)
}

// phaseTracer emits the child spans of one traced commit; the zero value
// (an untraced commit) emits nothing. Callers guard calls that build
// attributes with on, so the untraced path allocates nothing.
type phaseTracer struct {
	on  bool
	tr  obs.Tracer
	ctx obs.SpanContext
}

func (p phaseTracer) emit(name string, at time.Time, dur time.Duration, err error, attrs ...obs.Attr) {
	p.tr.Emit(obs.Event{Name: name, Time: at, Dur: dur, Err: err,
		Trace: p.ctx.Trace, Span: obs.NewSpanID(), Parent: p.ctx.Span, Attrs: attrs})
}

// commit is the store's one update pipeline; a single update is a batch of
// one. For each update in order: (1) verify its preconditions — under the
// update lock for the first, so enquiries keep running; (2) pickle its
// parameters and enqueue them on the log, which assigns the sequence
// number; (3) under the exclusive lock (taken before the first apply, kept
// to the last) apply the mutation. The log write that makes step 2 durable
// is the commit point, and where the pipeline waits for it is the one
// thing that depends on the root:
//
//   - A versioned root applies first and captures ONE new version for the
//     whole call, releases the lock, waits for the log sync — shared with
//     every concurrent committer — and only then publishes, so
//     lock-free enquiries never observe state a crash could erase
//     (published ≤ durable frontier).
//   - An unversioned root's enquiries read the working root under the
//     shared lock, so each entry is synced before it is applied (under the
//     update lock for the first, enquiries still running).
//
// Either way nothing is visible before it is durable, and the caller hears
// the outcome — success, or a refusal decided against applied-but-
// unpublished state — only after both.
func (s *Store) commit(us []Update, sc obs.SpanContext) (applied int, err error) {
	if len(us) == 0 {
		return 0, nil
	}
	tracing := s.tracer != nil && s.tracer != obs.Nop
	var upd obs.Span
	var pt phaseTracer
	if tracing && sc.Trace != 0 {
		upd = obs.StartSpan(s.tracer, sc, "update.commit")
		pt = phaseTracer{on: true, tr: s.tracer, ctx: upd.Context()}
	}
	start := time.Now()
	lockWait := s.lock.UpdateWaited()
	if pt.on {
		pt.emit("lock.wait", start, lockWait, nil, obs.A("mode", "update"))
	}
	unlock := s.lock.UpdateUnlock

	s.mu.Lock()
	err = s.unusable()
	s.mu.Unlock()
	if err != nil {
		unlock()
		return 0, err
	}

	var (
		log   = s.log
		tab   = s.logTab.Load() // stable under the update lock (see checkpointNonBlocking)
		seq   uint64            // last applied update's sequence
		wait  func() error      // blocks until it is durable
		bytes int
		fatal bool // err poisoned the store
		// Phase times summed over the call; commitNS is enqueue plus
		// durability wait.
		verifyNS, pickleNS, commitNS, applyNS time.Duration
	)
	for _, u := range us {
		// Step 1: verify preconditions.
		t0 := time.Now()
		if err = u.Verify(s.root); err != nil {
			break
		}
		t1 := time.Now()

		// Step 2: gather the parameters into a log entry. The payload is
		// pickled into a pooled buffer; the log frames it into its own
		// pending buffer before AppendAsync returns, so the buffer goes
		// straight back to the pool and the steady-state path allocates
		// nothing.
		bufp := payloadPool.Get().(*[]byte)
		payload, perr := tab.AppendMarshal((*bufp)[:0], &logRecord{U: u})
		if perr != nil {
			err = fmt.Errorf("core: pickling update: %w", perr)
			break
		}
		t2 := time.Now()
		var useq uint64
		useq, wait = log.AppendAsync(payload)
		bytes += len(payload)
		putPayloadBuf(bufp, payload)
		t3 := time.Now()
		commitNS += t3.Sub(t2)
		if pt.on {
			pt.emit("verify", t0, t1.Sub(t0), nil)
			pt.emit("pickle", t1, t2.Sub(t1), nil, obs.A("bytes", len(payload)))
			pt.emit("wal.append", t2, t3.Sub(t2), nil, obs.A("seq", useq), obs.A("bytes", len(payload)))
		}
		if !s.versioned {
			// Durable before visible to a shared-lock enquiry.
			d, werr := s.awaitDurable(log, wait, useq, pt)
			if commitNS += d; werr != nil {
				err, fatal = werr, true
				break
			}
			t3 = time.Now()
		}

		// Step 3: convert to exclusive and modify the virtual memory
		// structure.
		if applied == 0 {
			upWait := s.lock.UpgradeWaited()
			unlock = s.lock.ExclusiveUnlock
			if pt.on && upWait > 0 {
				pt.emit("lock.wait", t3, upWait, nil, obs.A("mode", "upgrade"))
			}
		}
		if aerr := u.Apply(s.root); aerr != nil {
			// The entry is (or will be) on disk but memory was not
			// updated: log and memory disagree. This is a bug in the
			// update type; refuse further work.
			err = fmt.Errorf("core: update applied to log but failed in memory (Verify/Apply contract broken): %w", aerr)
			s.poison(err)
			fatal = true
			break
		}
		t4 := time.Now()
		if pt.on {
			pt.emit("apply", t3, t4.Sub(t3), nil, obs.A("seq", useq))
		}
		seq = useq
		applied++
		s.hist.verify.ObserveDuration(t1.Sub(t0))
		s.hist.pickle.ObserveDuration(t2.Sub(t1))
		s.hist.apply.ObserveDuration(t4.Sub(t3))
		verifyNS += t1.Sub(t0)
		pickleNS += t2.Sub(t1)
		applyNS += t4.Sub(t3)
	}
	if applied > 0 {
		s.mu.Lock()
		s.applied = seq
		s.logEntries += int64(applied)
		s.mu.Unlock()
		if !fatal {
			// Capture the new version under the exclusive lock; it is
			// published once the durable frontier covers seq.
			s.queuePublish(seq)
		}
	}
	unlock()
	if fatal {
		return 0, err
	}

	// Even on a verify error the applied prefix is enqueued and applied;
	// wait out its durability so acked ⇒ durable holds for every update
	// this call reported nothing wrong about. A refusal with nothing
	// applied waits too, for everything enqueued before it: Verify judged
	// the working root, which may run ahead of the durable frontier, and
	// the caller must not learn what it holds ("already applied") before
	// an enquiry could see it.
	if applied == 0 {
		wait = log.Flush
	}
	if s.versioned {
		d, werr := s.awaitDurable(log, wait, seq, pt)
		if commitNS += d; werr != nil {
			return 0, werr
		}
		// seq — and, the log syncing in order, every sequence below it —
		// is durable: publish the queued versions it covers before
		// acknowledging the caller, preserving read-your-writes for
		// lock-free enquiries.
		s.publishDurable(log.DurableSeq())
	}
	if applied == 0 {
		return 0, err
	}

	s.hist.commit.ObserveDuration(commitNS)
	s.ctr.updates.Add(uint64(applied))
	s.recordStats(func(st *Stats) {
		st.Updates += uint64(applied)
		st.VerifyTime += verifyNS
		st.PickleTime += pickleNS
		st.CommitTime += commitNS
		st.ApplyTime += applyNS
		st.AppliedSeq = seq
	})
	if tracing {
		attrs := []obs.Attr{obs.A("seq", seq), obs.A("updates", applied), obs.A("bytes", bytes),
			obs.A("commit", commitNS.Round(time.Microsecond))}
		if upd.Active() {
			upd.End(nil, attrs...)
		} else {
			s.tracer.Emit(obs.Event{Name: "update.commit", Time: start, Dur: time.Since(start), Attrs: attrs})
		}
	}
	if err != nil {
		return applied, err
	}
	s.maybeAutoCheckpoint()
	return applied, nil
}

// awaitDurable waits until one entry is durable, poisoning the store if the
// log write failed, and reports how long it took. A traced commit gets its
// wal.sync span — and a checkpoint.mirror span when an open mirror window
// made the sync a dual write.
func (s *Store) awaitDurable(log *wal.Log, wait func() error, seq uint64, pt phaseTracer) (time.Duration, error) {
	mirror := pt.on && log.MirrorActive()
	t := time.Now()
	err := wait()
	d := time.Since(t)
	if pt.on {
		pt.emit("wal.sync", t, d, err, obs.A("seq", seq))
		if mirror {
			pt.emit("checkpoint.mirror", t, d, nil, obs.A("dual_write", true))
		}
	}
	if err != nil {
		s.poison(err)
	}
	return d, err
}

// queuePublish captures the just-applied root's new version under the
// exclusive lock and queues it for publication once its sequence is
// acknowledged durable. No-op for unversioned roots.
func (s *Store) queuePublish(seq uint64) {
	vr, ok := s.root.(VersionedRoot)
	if !s.versioned || !ok {
		return
	}
	view := vr.SnapshotView()
	s.pubMu.Lock()
	s.pendingPub = append(s.pendingPub, pendingPub{seq: seq, view: view})
	s.pubMu.Unlock()
}

// publishDurable publishes, in sequence order, every queued view whose
// sequence the durable frontier covers. Queue order is publication order:
// views are enqueued under the exclusive lock, so they are ascending, and
// pubMu serializes concurrent committers draining the queue after their
// sync. The slice is shifted in place so the steady state allocates
// nothing.
func (s *Store) publishDurable(frontier uint64) {
	s.pubMu.Lock()
	n := 0
	for n < len(s.pendingPub) && s.pendingPub[n].seq <= frontier {
		p := s.pendingPub[n]
		s.vs.publish(p.view, p.seq, s.vm.published, s.vm.reclaimed)
		n++
	}
	if n > 0 {
		rem := copy(s.pendingPub, s.pendingPub[n:])
		clear(s.pendingPub[rem:])
		s.pendingPub = s.pendingPub[:rem]
	}
	s.pubMu.Unlock()
}

// payloadPool recycles the buffers updates are pickled into on their way to
// the log. Indirect ([]byte behind a pointer) so Put does not allocate.
var payloadPool = sync.Pool{New: func() any { return new([]byte) }}

// putPayloadBuf returns a pickled-payload buffer to the pool, unless it
// grew past what is worth keeping.
func putPayloadBuf(bufp *[]byte, payload []byte) {
	if cap(payload) > 1<<20 {
		return
	}
	*bufp = payload[:0]
	payloadPool.Put(bufp)
}

// unusable reports why the store accepts no more work — closed, or poisoned
// — or nil. Callers hold s.mu.
func (s *Store) unusable() error {
	if s.closed {
		return ErrClosed
	}
	return s.poisoned
}

func (s *Store) poison(err error) {
	s.mu.Lock()
	if s.poisoned == nil {
		s.poisoned = err
	}
	s.mu.Unlock()
}

// Err reports the error that poisoned the store, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.poisoned
}

// maybeAutoCheckpoint triggers a checkpoint when an update left the log
// past its configured thresholds. The updating goroutine only checks
// counters: the checkpoint itself runs in the background, so the update that
// crossed the threshold does not pay the checkpoint's latency.
func (s *Store) maybeAutoCheckpoint() {
	if s.cfg.MaxLogBytes <= 0 && s.cfg.MaxLogEntries <= 0 || !s.autoCheckpointDue() {
		return
	}
	s.background(&s.checkpointing, func() {
		// Re-check: a manual or timer checkpoint may have emptied the log
		// while this goroutine was starting. Best effort — a failure
		// leaves the old version current and surfaces through
		// core_checkpoint_errors and LastCheckpointErr.
		if s.autoCheckpointDue() {
			_ = s.Checkpoint()
		}
	})
}

// background runs fn on a goroutine Close waits for, single-flight under
// busy; it does nothing while busy or once the store is closed.
func (s *Store) background(busy *atomic.Bool, fn func()) {
	if !busy.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		busy.Store(false)
		return
	}
	s.cpWG.Add(1) // under mu with closed checked, so Close cannot be Waiting yet
	s.mu.Unlock()
	go func() {
		defer busy.Store(false)
		defer s.cpWG.Done()
		fn()
	}()
}

// autoCheckpointDue reports whether the log has outgrown the auto-checkpoint
// thresholds.
func (s *Store) autoCheckpointDue() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.closed && s.poisoned == nil &&
		(s.cfg.MaxLogBytes > 0 && s.log.Size() > s.cfg.MaxLogBytes || s.cfg.MaxLogEntries > 0 && s.logEntries > s.cfg.MaxLogEntries)
}

// Checkpoint records the database on disk and starts an empty log (§3).
// With a DeltaRoot (the default for the nameserver and replica roots) the
// checkpoint file holds only the subtrees changed since the previous
// checkpoint, chained onto the last full image; a full rewrite (compaction)
// runs automatically once the chain crosses Config.MaxDeltaChain or
// Config.MaxDeltaRatio. Updates are excluded at most while the root is
// pickled in memory; every disk transfer happens while updates keep
// committing (see checkpointNonBlocking). Enquiries proceed throughout.
// Concurrent Checkpoint calls serialize; each performs a full switch.
func (s *Store) Checkpoint() error {
	s.cpMu.Lock()
	err := s.checkpointLocked(false)
	s.cpMu.Unlock()
	s.noteCheckpointErr(err)
	if err == nil {
		s.maybeCompact()
	}
	return err
}

// checkpointLocked runs one checkpoint switch; the caller holds cpMu.
// forceFull makes a delta-capable store write a full image (compaction).
func (s *Store) checkpointLocked(forceFull bool) error {
	s.cpInflight.Set(1)
	defer s.cpInflight.Set(0)
	return s.checkpointNonBlocking(forceFull)
}

// noteCheckpointErr records a checkpoint outcome where LastCheckpointErr,
// the error counter and the tracer surface it.
func (s *Store) noteCheckpointErr(err error) {
	s.mu.Lock()
	s.lastCPErr = err
	s.mu.Unlock()
	if err != nil && !errors.Is(err, ErrClosed) {
		s.ctr.cpErrors.Inc()
		obs.Emit(s.tracer, obs.Event{Name: "checkpoint.error", Err: err})
	}
}

// compactionDue reports whether the delta chain has outgrown its bounds
// and should be rewritten into a fresh full image.
func (s *Store) compactionDue() bool {
	s.mu.Lock()
	st := s.cpState
	unhealthy := s.closed || s.poisoned != nil
	s.mu.Unlock()
	if unhealthy || st.Version <= st.Base {
		return false
	}
	if int(st.Version-st.Base) >= s.maxDeltaChain() {
		return true
	}
	bb := s.baseBytes.Load()
	return bb > 0 && float64(s.deltaBytes.Load()) > s.maxDeltaRatio()*float64(bb)
}

// maybeCompact rewrites the delta chain into a fresh full image when it
// has outgrown its bounds — on a single-flight background goroutine, so
// the checkpoint that tripped the threshold doesn't absorb a full-root
// write, or synchronously under Config.Deterministic.
func (s *Store) maybeCompact() {
	if !s.compactionDue() {
		return
	}
	compact := func() {
		s.cpMu.Lock()
		err := s.compactLocked()
		s.cpMu.Unlock()
		s.noteCheckpointErr(err)
	}
	if s.cfg.Deterministic {
		compact()
	} else {
		s.background(&s.compacting, compact)
	}
}

// compactLocked re-checks the thresholds under cpMu (a concurrent manual
// Checkpoint may have compacted already) and runs the full switch.
func (s *Store) compactLocked() error {
	if !s.compactionDue() {
		return nil
	}
	s.mu.Lock()
	chainLen := int64(1 + s.cpState.Version - s.cpState.Base)
	s.mu.Unlock()
	obs.Emit(s.tracer, obs.Event{Name: "checkpoint.compact", Attrs: []obs.Attr{
		obs.A("chain_len", chainLen),
		obs.A("delta_bytes", s.deltaBytes.Load()),
		obs.A("base_bytes", s.baseBytes.Load()),
	}})
	err := s.checkpointLocked(true)
	if err == nil {
		s.ctr.compactions.Inc()
		s.recordStats(func(st *Stats) { st.Compactions++ })
	}
	return err
}

// LastCheckpointErr reports the outcome of the most recent checkpoint
// attempt: nil after a success (or before any attempt). Auto- and
// timer-triggered checkpoints run off the update path, so this accessor —
// with the core_checkpoint_errors counter and the checkpoint.error tracer
// event — is how their failures surface.
func (s *Store) LastCheckpointErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCPErr
}

// CheckpointStage identifies a point inside a checkpoint at which the store
// calls the hook installed by SetCheckpointStageHook. The crashtest harness
// uses the stages to apply updates deterministically inside the mirror
// window, so its crash-point sweep covers concurrent-with-checkpoint commits
// without racing goroutines.
type CheckpointStage string

const (
	// StageMirrorOpen: the update lock has been released; appends commit
	// to the old log and are buffered for the new one. The checkpoint
	// file has not been written.
	StageMirrorOpen CheckpointStage = "mirror-open"
	// StageFileWritten: the checkpoint file and the new log exist and the
	// mirror is durably caught up; the version has not flipped.
	StageFileWritten CheckpointStage = "file-written"
	// StageFlipped: newversion is durably installed (the switch is
	// committed) but the WAL still appends to the old file, dual-writing
	// the new one.
	StageFlipped CheckpointStage = "flipped"
)

// SetCheckpointStageHook installs fn, called synchronously on the
// checkpointing goroutine at each stage of every checkpoint (nil
// uninstalls). Test instrumentation; the hook may Apply updates but
// must not call Checkpoint, Close or History.
func (s *Store) SetCheckpointStageHook(fn func(CheckpointStage)) {
	s.mu.Lock()
	s.cpHook = fn
	s.mu.Unlock()
}

func (s *Store) stageHook(stage CheckpointStage) {
	s.mu.Lock()
	fn := s.cpHook
	s.mu.Unlock()
	if fn != nil {
		fn(stage)
	}
}

// checkpointNonBlocking is the mirror-window checkpoint:
//
//  1. Under the update lock: flush the commit pipeline (every
//     applied update becomes durable in the old log), record nextSeq,
//     pickle the root into a pooled in-memory buffer — the only disk-free,
//     CPU-bound work — and open the WAL's mirror window. Release the lock;
//     updates commit normally from here on, to the old log, with each
//     frame also buffered for the new one.
//  2. In the background: stream the buffered checkpoint to disk and sync
//     it, create the new log file, attach it to the mirror window and
//     drain the mirrored tail into it. From the attach on, every flush
//     writes and syncs both logs before acknowledging, so at every
//     instant the new log durably holds every acknowledged entry with
//     seq >= nextSeq. Then commit the switch (newversion durable) and
//     install the version file.
//  3. A brief mu-only critical section retargets the WAL to the new file
//     and swaps the checkpoint state; retention cleanup runs last, after
//     the old file handle is closed.
//
// Crash safety at every op: before the newversion commit, recovery
// restores the old checkpoint + old log, which received every
// acknowledged update throughout (it stays the commit point); the debris
// of the new version is cleared. After the commit, recovery restores the
// new checkpoint + new log, which the dual-sync rule has kept durably
// complete up to every acknowledgement. The crashtest overlap sweep
// (cmd/crashtest -overlap) proves this at every faultfs op index.
//
// With a DeltaRoot and a pinned previous view, step 1's pickle produces a
// delta — the diff of the pinned snapshot against the previous
// checkpoint's — and step 2 writes it as checkpointN.d, chaining onto the
// previous version. Everything else (mirror window, commit point,
// retention) is identical; a delta that would rival the base image's size
// is discarded and the full root pickled instead. forceFull is the
// compactor's handle: it collapses the chain into a fresh full image.
func (s *Store) checkpointNonBlocking(forceFull bool) error {
	s.lock.UpdateUrgent()
	s.mu.Lock()
	err := s.unusable()
	cur := s.cpState
	s.mu.Unlock()
	if err != nil {
		s.lock.UpdateUnlock()
		return err
	}

	log := s.log
	cpStart := time.Now()
	if err := log.Flush(); err != nil {
		s.poisonUnlessClosed(err)
		s.lock.UpdateUnlock()
		return err
	}
	// The flush made every applied update durable, but their committers
	// may still be waiting on it with their publications queued. Drain the
	// queue here — we hold the update lock, so applied is stable — or the
	// pinned snapshot below would sit behind applied and force the
	// locked-pickle fallback.
	s.publishDurable(log.DurableSeq())
	s.mu.Lock()
	nextSeq := s.applied + 1
	s.mu.Unlock()
	obs.Emit(s.tracer, obs.Event{Name: "checkpoint.start", Attrs: []obs.Attr{
		obs.A("version", cur.Version), obs.A("next_seq", nextSeq),
	}})

	// Pickle the root in memory. With a versioned root, the lock is held
	// only long enough to pin the current published version — whose seq
	// is exactly applied, since appliers need the update lock we hold —
	// and the pickle itself runs after the lock is released, against the
	// immutable snapshot, concurrently with committing updates. With an
	// unversioned root the pickle is the one phase that excludes updates.
	p0 := time.Now()
	bufp := cpBufPool.Get().(*[]byte)
	sw := &sliceWriter{buf: (*bufp)[:0]}
	var perr error
	var snap *Snapshot
	if s.versioned {
		snap, perr = s.SnapshotAt()
		if perr == nil && snap.Seq() != nextSeq-1 {
			// Cannot happen while the update lock serializes applies;
			// fall back to the locked pickle rather than write a torn
			// checkpoint if the invariant is ever broken.
			snap.Release()
			snap = nil
		}
	}
	if snap == nil && perr == nil {
		perr = pickle.Write(sw, &header{NextSeq: nextSeq, Root: s.root})
	}
	buf := sw.buf
	pickleTime := time.Since(p0)
	prevTab := s.logTab.Load()
	if perr == nil {
		perr = log.BeginMirror()
	}
	if perr == nil && !bytes.Equal(prevTab.Bytes(), s.ownTab.Bytes()) {
		// The window's entries land in the old file and the new one, whose
		// heads differ: pickle them self-describing. (Committers load logTab
		// under the update lock.)
		s.logTab.Store(nil)
	}
	stall := time.Since(cpStart)
	s.lock.UpdateUnlock()
	s.hist.cpStall.ObserveDuration(stall)
	if perr != nil {
		if snap != nil {
			snap.Release()
		}
		putCPBuf(bufp, buf)
		return perr
	}
	s.stageHook(StageMirrorOpen)

	// Background from here: updates keep committing to the old log while
	// the checkpoint goes to disk. abort undoes the window, leaving the
	// old version current and the store healthy.
	next := cur.Version + 1
	abort := func(err error) error {
		log.AbortMirror()
		s.logTab.Store(prevTab)
		checkpoint.Abort(s.cfg.FS, next)
		return err
	}
	var isDelta bool
	var subtrees int
	var curView any
	if snap != nil {
		ps := time.Now()
		curView = snap.Root()
		if prevView := s.cpPrevView; prevView != nil && !forceFull {
			if dr, ok := curView.(DeltaRoot); ok {
				delta, derr := dr.DeltaSince(prevView)
				if derr == nil {
					dh := &deltaHeader{
						Version: next, Parent: cur.Version,
						FromSeq: s.cpPrevSeq, NextSeq: nextSeq,
						Subtrees: deltaOps(delta), Delta: delta,
					}
					if perr = pickle.Write(sw, dh); perr == nil {
						isDelta = true
						subtrees = dh.Subtrees
					}
				}
				if !isDelta {
					// A failed diff or pickle is not fatal — fall back to
					// the full image this checkpoint would otherwise be.
					sw.buf = sw.buf[:0]
					perr = nil
				}
			}
		}
		if isDelta {
			// Size guard: a delta rivaling the base image saves nothing
			// and still lengthens the chain; write a fresh full image.
			if bb := s.baseBytes.Load(); bb <= 0 || float64(len(sw.buf)) >= s.maxDeltaRatio()*float64(bb) {
				sw.buf = sw.buf[:0]
				isDelta = false
			}
		}
		if !isDelta {
			perr = pickle.Write(sw, &header{NextSeq: nextSeq, Root: curView})
		}
		snap.Release()
		buf = sw.buf
		pickleTime += time.Since(ps)
		if perr != nil {
			putCPBuf(bufp, buf)
			return abort(perr)
		}
	}
	cpBytes := int64(len(buf))
	writeBody := func(w io.Writer) error {
		_, werr := w.Write(buf)
		return werr
	}
	ioStart := time.Now()
	var prepErr error
	if isDelta {
		_, prepErr = checkpoint.PrepareDelta(s.cfg.FS, cur, writeBody, s.cpOpts())
	} else {
		_, prepErr = checkpoint.Prepare(s.cfg.FS, cur, writeBody, s.cpOpts())
	}
	if prepErr != nil {
		putCPBuf(bufp, buf)
		return abort(prepErr)
	}
	putCPBuf(bufp, buf)
	ioTime := time.Since(ioStart)

	switchStart := time.Now()
	f, err := checkpoint.CreateLogFile(s.cfg.FS, next, s.ownTab.Bytes())
	if err != nil {
		return abort(err)
	}
	if err := log.AttachMirrorFile(f); err != nil {
		f.Close()
		return abort(err)
	}
	if err := log.SyncMirror(); err != nil {
		// A failed mirror write has already poisoned the WAL (appends
		// see the failure); record it at the store too.
		s.poisonUnlessClosed(err)
		return abort(err)
	}
	s.stageHook(StageFileWritten)

	// The commit point: newversion durably names the new version.
	if err := checkpoint.CommitNewVersion(s.cfg.FS, next); err != nil {
		return abort(err)
	}
	if err := checkpoint.InstallVersion(s.cfg.FS); err != nil {
		// The switch is committed on disk (a restart recovers the new
		// version — complete, thanks to the dual-sync rule) but this
		// process cannot finish it; running on would diverge from what
		// recovery restores.
		s.poisonUnlessClosed(err)
		log.AbortMirror()
		return err
	}
	s.stageHook(StageFlipped)

	// Brief critical section: retarget the log to its new file and swap
	// the checkpoint state. The old file handle is closed inside.
	mirrored, err := log.FinishMirror(checkpoint.LogName(next))
	if err != nil {
		s.poisonUnlessClosed(err)
		return err
	}
	s.logTab.Store(s.ownTab)
	s.ctr.cpMirrored.Add(uint64(mirrored))
	newBase := next
	if isDelta {
		newBase = cur.Base
	}
	s.mu.Lock()
	// Provisional state until Finish reports retention; logEntries counts
	// what the new log holds — exactly the window's mirrored entries plus
	// whatever commits from now on.
	s.cpState = checkpoint.State{Version: next, Base: newBase, Retained: cur.Retained}
	s.logEntries = int64(s.applied - (nextSeq - 1))
	s.mu.Unlock()

	// The switch is complete: disk is at version next whatever becomes of
	// the cleanup below, so the chain accounting and the next delta's base
	// move with it. curView is the pinned published view this checkpoint
	// recorded — exactly what on-disk version next reconstructs to. (All
	// under cpMu, which the caller holds.)
	if isDelta {
		s.deltaBytes.Add(cpBytes)
	} else {
		s.baseBytes.Store(cpBytes)
		s.deltaBytes.Store(0)
	}
	if _, ok := curView.(DeltaRoot); ok {
		s.cpPrevView = curView
		s.cpPrevSeq = nextSeq
	}

	// Retention cleanup last — after the WAL stopped touching the old
	// file. A crash here leaves debris recovery clears the same way, and so
	// does a failure: the store runs on, healthy, at version next, and the
	// next checkpoint's cleanup starts over from the directory listing.
	newState, err := checkpoint.Finish(s.cfg.FS, next, s.cpOpts())
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.cpState = newState
	s.mu.Unlock()
	checkpoint.ObserveSwitch(s.cpOpts(), cpStart)
	switchTime := time.Since(switchStart)

	s.hist.cpPickle.ObserveDuration(pickleTime)
	s.hist.cpIO.ObserveDuration(ioTime)
	s.hist.cpSwitch.ObserveDuration(switchTime)
	s.ctr.checkpoints.Inc()
	s.recordStats(func(st *Stats) {
		st.Checkpoints++
		st.CheckpointPickleTime += pickleTime
		st.CheckpointIOTime += ioTime
		st.CheckpointStallTime += stall
		st.CheckpointSwitchTime += switchTime
		st.LastCheckpointBytes = cpBytes
		if isDelta {
			st.DeltaCheckpoints++
		}
	})
	if isDelta {
		s.ctr.deltaCheckpoints.Inc()
	}
	obs.Emit(s.tracer, obs.Event{Name: "checkpoint.finish", Dur: time.Since(cpStart), Attrs: []obs.Attr{
		obs.A("version", next),
		obs.A("delta", isDelta),
		obs.A("bytes", cpBytes),
		obs.A("subtrees", subtrees),
		obs.A("stall", stall.Round(time.Microsecond)),
		obs.A("pickle", pickleTime.Round(time.Microsecond)),
		obs.A("io", ioTime.Round(time.Microsecond)),
		obs.A("switch", switchTime.Round(time.Microsecond)),
		obs.A("mirrored", mirrored),
	}})
	return nil
}

func (s *Store) poisonUnlessClosed(err error) {
	if errors.Is(err, ErrClosed) || errors.Is(err, wal.ErrClosed) {
		return
	}
	s.poison(err)
}

// cpBufPool recycles the buffer non-blocking checkpoints pickle the root
// into: one root-sized buffer survives between checkpoints instead of being
// reallocated (and page-faulted in) every time.
var cpBufPool = sync.Pool{New: func() any { return new([]byte) }}

func putCPBuf(bufp *[]byte, buf []byte) {
	*bufp = buf[:0]
	cpBufPool.Put(bufp)
}

// sliceWriter appends everything written to an in-memory buffer. The
// checkpoint pickler streams through it (the encoder flushes every few KB),
// so the pickled root lands in one growing buffer without an extra
// encoder-side copy.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

// countingWriter counts the bytes written, sizing the initial checkpoint
// image.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// countingReader counts the bytes the decoder consumed, sizing checkpoint
// files on the restart path without an extra stat.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// CheckpointEvery starts a background goroutine checkpointing at the given
// interval — the paper's "simple scheme of making a checkpoint each night".
// It stops when the store is closed. Failures surface through
// LastCheckpointErr, the core_checkpoint_errors counter and the
// checkpoint.error tracer event.
func (s *Store) CheckpointEvery(interval time.Duration) {
	s.mu.Lock()
	if s.stopTimer != nil || s.closed {
		s.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	s.stopTimer = stop
	s.mu.Unlock()

	s.timerWG.Add(1)
	go func() {
		defer s.timerWG.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				_ = s.Checkpoint()
			}
		}
	}()
}

// cpOpts derives the checkpoint-protocol options from the config.
func (s *Store) cpOpts() checkpoint.Options {
	return checkpoint.Options{Retain: s.cfg.Retain, ArchiveLogs: s.cfg.ArchiveLogs, Obs: s.cfg.Obs}
}

// History replays the database's audit trail — every archived log (with
// Config.ArchiveLogs), every retained log, and the current log, in
// sequence order — calling fn for each update ever committed that is still
// on disk. It holds the update lock, so updates are excluded while the
// trail is read but enquiries proceed. The trail starts at the oldest log
// still present; sequence continuity across files is verified.
func (s *Store) History(fn func(seq uint64, u Update) error) error {
	// cpMu first (the same order Checkpoint uses): a background
	// checkpoint renames and deletes log files; the trail must not be
	// read mid-switch.
	s.cpMu.Lock()
	defer s.cpMu.Unlock()
	s.lock.UpdateUrgent()
	defer s.lock.UpdateUnlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	st := s.cpState
	s.mu.Unlock()

	// Bring the current log file in line with memory (committers may still
	// be waiting on their sync).
	if err := s.log.Flush(); err != nil {
		return err
	}

	var files []string
	archived, err := checkpoint.ArchivedLogs(s.cfg.FS)
	if err != nil {
		return err
	}
	for _, v := range archived {
		files = append(files, checkpoint.ArchiveLogName(v))
	}
	for _, v := range st.Retained {
		files = append(files, checkpoint.LogName(v))
	}
	files = append(files, st.LogName())

	// The oldest log may start anywhere; every later one must go on where
	// the one before it stopped (an empty log stops where it started).
	var next uint64
	for _, name := range files {
		res, err := replayUpdates(s.cfg.FS, name, next, wal.ReplayOptions{SkipDamaged: s.cfg.SkipDamagedLogEntries}, fn)
		if err != nil {
			return err
		}
		next = res.NextSeq
	}
	return nil
}

// Stats returns a snapshot of the instrumentation counters, including the
// phase latency distributions.
func (s *Store) Stats() Stats {
	s.statMu.Lock()
	st := s.stats
	s.statMu.Unlock()
	st.Enquiries = s.enquiries.Load()
	st.VerifyDist = s.hist.verify.Snapshot()
	st.PickleDist = s.hist.pickle.Snapshot()
	st.CommitDist = s.hist.commit.Snapshot()
	st.ApplyDist = s.hist.apply.Snapshot()
	st.CheckpointPickleDist = s.hist.cpPickle.Snapshot()
	st.CheckpointIODist = s.hist.cpIO.Snapshot()
	st.CheckpointStallDist = s.hist.cpStall.Snapshot()
	st.CheckpointSwitchDist = s.hist.cpSwitch.Snapshot()
	st.LogBytes = s.log.Size()
	s.mu.Lock()
	st.LogEntries = s.logEntries
	st.ChainLength = int(1 + s.cpState.Version - s.cpState.Base)
	s.mu.Unlock()
	return st
}

// Version reports the current checkpoint version.
func (s *Store) Version() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cpState.Version
}

// AppliedSeq reports the sequence number of the last applied update.
func (s *Store) AppliedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// DurableSeq reports the sequence number of the last update known durable
// on this store — the staleness bound a bounded-staleness read may quote.
// On a versioned store this is the published version's sequence (published
// ≤ durable frontier); on an unversioned one the applied sequence, which
// only advances after the log sync.
func (s *Store) DurableSeq() uint64 {
	if s.versioned {
		if v := s.vs.pub.Load(); v != nil {
			return v.seq
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applied
}

// Close flushes and closes the log. It does not checkpoint; call
// Checkpoint first if a fast next restart is wanted.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	stop := s.stopTimer
	s.mu.Unlock()
	if stop != nil {
		close(stop)
	}
	s.timerWG.Wait()
	// Wait for an in-flight auto-checkpoint: it either completes its
	// switch or aborts against the closed flag before the log goes away.
	s.cpWG.Wait()
	return s.log.Close()
}

// openLog opens the store's redo log, the one file name, to which entries are
// pickled against the table its head holds; a fresh or emptied file's head is
// this process's table.
func (s *Store) openLog(name string, nextSeq uint64) (*wal.Log, error) {
	l, err := wal.Open(s.cfg.FS, name, nextSeq, wal.Options{
		NoSync: s.cfg.UnsafeNoSync, Head: s.ownTab.Bytes(), Obs: s.cfg.Obs, Tracer: s.cfg.Tracer})
	if err != nil {
		return nil, err
	}
	tab, err := pickle.ParseTable(l.Head())
	if err != nil {
		l.Close()
		return nil, err
	}
	s.logTab.Store(tab)
	return l, nil
}
