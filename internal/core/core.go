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
//   - A checkpoint (Checkpoint) takes a snapshot of the root under the
//     update lock, then pickles it and writes it to disk while updates keep
//     committing, and flips to the new version in a second short hold of
//     the lock: the new log gets the entries committed meanwhile, then
//     newversion names it (see checkpointNonBlocking and DESIGN.md). Every
//     store runs this one protocol; a root that offers no versions is
//     pickled under the update lock instead of from a snapshot.
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
	"sync"
	"sync/atomic"
	"time"

	"smalldb/internal/checkpoint"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
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

// logDecoder decodes the named log's entries against the table its head holds.
func logDecoder(name string, head []byte) (func(seq uint64, payload []byte) (Update, error), error) {
	tab, err := pickle.ParseTable(head)
	if err != nil {
		return nil, fmt.Errorf("core: %s: log head unreadable: %w", name, err)
	}
	return func(seq uint64, payload []byte) (Update, error) {
		var rec logRecord
		if err := tab.Unmarshal(payload, &rec); err != nil {
			return nil, fmt.Errorf("core: %s: log entry %d undecodable: %w", name, seq, err)
		}
		if rec.U == nil {
			return nil, fmt.Errorf("core: %s: log entry %d holds no update", name, seq)
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
	// KeepLog, when set, keeps the logs holding an update it answers true
	// for: a superseded log is archived, and each checkpoint deletes
	// archived logs, oldest first, up to the first holding such an update
	// (none with ArchiveLogs). A replica node keeps this way the updates it
	// originated that a member has not acknowledged.
	KeepLog func(u Update) bool
	// UnsafeNoSync skips the sync on every log append: there is no
	// commit point, and a crash can lose acknowledged updates. It exists
	// only as an ablation (E5/E9) quantifying what the paper's one disk
	// write per update buys and costs. It selects no other code path:
	// checkpoints run the same protocol, syncing their own files, whose
	// order still recovers a prefix of the updates at every crash point.
	UnsafeNoSync bool
	// MaxDeltaChain bounds the deltas a chain holds: a checkpoint whose
	// chain already holds this many writes a full image instead, so the
	// chain never exceeds MaxDeltaChain+1 files. 0 means the default
	// (DefaultMaxDeltaChain). Longer chains mean less checkpoint I/O and
	// more restart work.
	MaxDeltaChain int
	// MaxDeltaRatio bounds the chain's delta bytes relative to its base
	// image: a checkpoint writes a delta only if the chain's deltas,
	// this one included, stay within base*MaxDeltaRatio, and a full image
	// otherwise. 0 means the default (DefaultMaxDeltaRatio).
	MaxDeltaRatio float64
	// Obs, when non-nil, receives the store's metrics (core_*), the
	// log's (wal_*), the checkpoint protocol's (checkpoint_*) and the
	// waits of the three-mode lock's contended acquisitions (core_lock_*,
	// see lock.go), for export through the debug endpoint. The store
	// keeps its phase histograms regardless, so Stats() always carries
	// percentiles.
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
	// the full checkpoints written over a chain that held deltas.
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
	// checkpoints, both holds of each: at the start the log flush plus,
	// for an unversioned root, the in-memory pickle; at the flip the log
	// flush, the tail's write and sync, and the newversion commit.
	CheckpointStallTime time.Duration
	// CheckpointSwitchTime covers the version-switch protocol: new log
	// creation, the flip, install and retention cleanup — everything past
	// the checkpoint file write.
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
	// restart of a busy store (a full checkpoint refreshes it).
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
	cfg Config

	// upd and rw are the paper's three-mode lock (lock.go); waits
	// accounts their contended acquisitions.
	upd   sync.Mutex
	rw    sync.RWMutex
	waits struct{ shared, update, upgrade lockMode }

	// root is the working (mutable) database root, guarded by the lock:
	// updates mutate it under exclusive mode. With a versioned root,
	// enquiries never touch it — they read the published version below —
	// and every mutation is copy-on-write with respect to published
	// views. With an unversioned root, enquiries read it under shared.
	root any

	// versioned reports that root implements VersionedRoot: enquiries are
	// lock-free reads of the version pub points to. pub stays nil on an
	// unversioned store.
	versioned bool
	pub       atomic.Pointer[Snapshot]

	// enquiries counts Views on an atomic so the lock-free read path
	// never takes statMu.
	enquiries atomic.Uint64

	// pubMu guards the deferred-publication queue: views captured under
	// the exclusive lock, published in sequence order once the log
	// acknowledges them durable.
	pubMu      sync.Mutex
	pendingPub []pendingPub

	// log is the redo log. Open sets it once; a checkpoint retargets it to
	// the new version's file in place (wal.Log.Retarget), never replaces it.
	log *wal.Log

	// ownTab is the type table this process writes at the head of every log
	// file it creates, and pickles every entry against: Open checkpoints a
	// log that carries any other head (or none) out of service.
	ownTab *pickle.Table

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
	cpMu          sync.Mutex     // serializes whole checkpoints end to end
	cpWG          sync.WaitGroup // in-flight auto-checkpoint goroutines; Close waits

	// Delta-checkpoint state, guarded by cpMu (set without it only during
	// Open, before the store is shared). cpPrevSeq is the NextSeq of the
	// version on disk, where the current log begins: the next checkpoint
	// folds its delta from the log from there (DeltaRoot). 0 means the next
	// checkpoint must be full. baseBytes and deltaBytes are the pickled
	// sizes of the chain's full base image and of its deltas.
	cpPrevSeq  uint64
	baseBytes  int64
	deltaBytes int64

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
		enquiries, updates, checkpoints, cpErrors *obs.Counter
		deltaCheckpoints, compactions             *obs.Counter
		published, locked                         *obs.Counter
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
	s.ctr.deltaCheckpoints = reg.Counter("core_delta_checkpoints")
	s.ctr.compactions = reg.Counter("core_compactions")
	s.ctr.published = reg.Counter("core_versions_published")
	s.ctr.locked = reg.Counter("core_enquiries_locked")
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
	s.waits.update = newLockMode(reg, s.tracer, "update")
	s.waits.upgrade = newLockMode(reg, s.tracer, "upgrade")
	sharedReg := reg
	if s.versioned {
		// With lock-free enquiries shared mode is never acquired; leave
		// its series out so /stats does not export dead metrics.
		sharedReg = nil
	}
	s.waits.shared = newLockMode(sharedReg, s.tracer, "shared")
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
	if !bytes.Equal(s.log.Head(), s.ownTab.Bytes()) {
		// An older build's log: move to a version whose log carries this
		// build's head before serving, so every entry is written one way.
		if err := s.Checkpoint(); err != nil {
			s.log.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) initFresh() (*Store, error) {
	root := s.cfg.NewRoot()
	image, err := pickle.Marshal(&header{NextSeq: 1, Root: root})
	if err != nil {
		return nil, err
	}
	head := s.ownTab.Bytes()
	st, err := checkpoint.Init(s.cfg.FS, image, head)
	if err != nil {
		return nil, err
	}
	// Init wrote the log holding only its head frame.
	l, err := s.openLog(st.LogName(), wal.ReplayResult{NextSeq: 1, GoodSize: int64(len(wal.HeadFrame(head))), Head: head})
	if err != nil {
		return nil, err
	}
	s.root = root
	s.log = l
	s.cpState = st
	s.applied = 0
	s.baseBytes = int64(len(image))
	s.markDeltaBase(root, 1)
	s.queuePublish(0)
	s.publishDurable(0)
	return s, nil
}

// markDeltaBase records root, the state of the version on disk whose log
// begins at nextSeq, as the one the next checkpoint's delta folds from,
// when the root type supports delta checkpoints at all.
func (s *Store) markDeltaBase(root any, nextSeq uint64) {
	s.cpPrevSeq = 0
	if _, ok := root.(DeltaRoot); ok {
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
		// Mark the chain's state — exactly what on-disk version st.Version
		// records, before replay mutates the root — so the first
		// post-restart checkpoint can chain a delta onto it.
		s.markDeltaBase(hdr.Root, hdr.NextSeq)
		res, err = s.replayInto(hdr, st.LogName(), hdr.NextSeq, replayOpts)
	}
	if err != nil && len(st.Retained) > 0 {
		// Hard-error fallback through the newest retained version. The
		// next checkpoint after a fallback is always full: the on-disk
		// current version is damaged and must not become a delta parent.
		s.cpPrevSeq = 0
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

	l, err := s.openLog(st.LogName(), res)
	if err != nil {
		return err
	}
	s.baseBytes, s.deltaBytes = cs.baseBytes, cs.deltaBytes
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

// readPickled reads the named checkpoint file whole and decodes its one
// value into ptr, reporting the file's size and the time taken.
func (s *Store) readPickled(name, what string, ptr any) (int64, time.Duration, error) {
	start := time.Now()
	data, err := vfs.ReadFile(s.cfg.FS, name)
	if err == nil {
		err = pickle.Unmarshal(data, ptr)
	}
	if err != nil {
		return 0, 0, fmt.Errorf("core: reading %s %s: %w", what, name, err)
	}
	return int64(len(data)), time.Since(start), nil
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
	decode, err := logDecoder(name, head)
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
	if sn := s.pub.Load(); sn != nil {
		s.enquiries.Add(1)
		s.ctr.enquiries.Inc()
		return fn(sn.root)
	}
	s.lockShared()
	defer s.rw.RUnlock()
	s.enquiries.Add(1)
	s.ctr.enquiries.Inc()
	s.ctr.locked.Inc()
	return fn(s.root)
}

// Apply runs one update through the paper's three-step protocol (§3):
// verify, log write — the commit point — and apply. On return the update
// is durable, applied, and visible to enquiries.
func (s *Store) Apply(u Update) error {
	_, err := s.commit([]Update{u}, obs.SpanContext{}, nil)
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
	_, err := s.commit(us, obs.SpanContext{}, nil)
	return err
}

// ApplyBatchTraced is ApplyBatch carrying a trace context and reporting how
// many updates it committed. When sc belongs to a trace and the store has a
// tracer, the batch becomes an "update.commit" span under sc with a child
// span per phase — lock wait, verify, pickle, WAL append, the durability
// sync and apply. A zero sc is exactly the untraced path. An error with
// the store still usable is a refusal of us[applied] — its Verify failed —
// and a caller that can classify the refusal may resume with
// us[applied+1:]. An error that poisoned the store reports 0: nothing the
// call did is acknowledged.
//
// A non-nil logged is called once, with the number of updates applied,
// when the applied prefix is on the log queue and applied in memory but
// before the call waits for it to be durable; it is skipped when nothing
// was applied or the batch poisoned the store. A replica uses it to start
// the prefix's push while the local sync runs. It runs under the update lock,
// so in log order, and must neither block nor take the update lock.
func (s *Store) ApplyBatchTraced(us []Update, sc obs.SpanContext, logged func(applied int)) (applied int, err error) {
	return s.commit(us, sc, logged)
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
//     whole call, runs the caller's logged hook, releases the lock, waits
//     for the log sync — shared with every concurrent committer — and only
//     then publishes, so lock-free enquiries never observe state a crash
//     could erase (published ≤ durable frontier).
//   - An unversioned root's enquiries read the working root under the
//     shared lock, so each entry is synced before it is applied (under the
//     update lock for the first, enquiries still running).
//
// Either way nothing is visible before it is durable, and the caller hears
// the outcome — success, or a refusal decided against applied-but-
// unpublished state — only after both.
func (s *Store) commit(us []Update, sc obs.SpanContext, logged func(applied int)) (applied int, err error) {
	if len(us) == 0 {
		return 0, nil
	}
	tracing := s.tracer != nil && s.tracer != obs.Nop
	upd := obs.StartSpan(s.tracer, sc, "update.commit")
	pt := phaseTracer{on: upd.Active(), tr: s.tracer, ctx: upd.Context()}
	start := time.Now()
	lockWait := s.lockUpdate()
	if pt.on {
		pt.emit("lock.wait", start, lockWait, nil, obs.A("mode", "update"))
	}
	upgraded := false
	held := true
	defer func() {
		// A panic in an update's Verify or Apply, or in logged, must not
		// leave the lock taken and every later update blocked: poison the
		// store with the panic, release whichever mode is held, panic on.
		if held {
			p := recover()
			s.poison(fmt.Errorf("core: update panicked in commit: %v", p))
			s.release(upgraded)
			if p != nil {
				panic(p)
			}
		}
	}()

	s.mu.Lock()
	err = s.unusable()
	s.mu.Unlock()
	if err != nil {
		held = false
		s.release(false)
		return 0, err
	}

	var (
		log   = s.log
		seq   uint64       // last applied update's sequence
		wait  func() error // blocks until it is durable
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
		payload, perr := s.ownTab.AppendMarshal((*bufp)[:0], &logRecord{U: u})
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
			d, werr := s.awaitDurable(wait, useq, pt)
			if commitNS += d; werr != nil {
				err, fatal = werr, true
				break
			}
			t3 = time.Now()
		}

		// Step 3: convert to exclusive and modify the virtual memory
		// structure.
		if applied == 0 {
			upWait := s.upgrade()
			upgraded = true
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
	if logged != nil && applied > 0 && !fatal {
		logged(applied)
	}
	held = false
	s.release(upgraded)
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
		d, werr := s.awaitDurable(wait, seq, pt)
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
// wal.sync span.
func (s *Store) awaitDurable(wait func() error, seq uint64, pt phaseTracer) (time.Duration, error) {
	t := time.Now()
	err := wait()
	d := time.Since(t)
	if pt.on {
		pt.emit("wal.sync", t, d, err, obs.A("seq", seq))
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
		s.pub.Store(&Snapshot{root: p.view, seq: p.seq})
		s.ctr.published.Inc()
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
	if s.cfg.MaxLogBytes <= 0 && s.cfg.MaxLogEntries <= 0 || !s.autoCheckpointDue() ||
		!s.checkpointing.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.checkpointing.Store(false)
		return
	}
	s.cpWG.Add(1) // under mu with closed checked, so Close cannot be Waiting yet
	s.mu.Unlock()
	go func() {
		defer s.checkpointing.Store(false)
		defer s.cpWG.Done()
		// Re-check: a manual or timer checkpoint may have emptied the log
		// while this goroutine was starting. Best effort — a failure
		// leaves the old version current and surfaces through
		// core_checkpoint_errors and LastCheckpointErr.
		if s.autoCheckpointDue() {
			_ = s.Checkpoint()
		}
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
// checkpoint file holds only the names the retiring log wrote, chained onto
// the last full image, unless that would take the chain past
// Config.MaxDeltaChain or Config.MaxDeltaRatio: then the checkpoint writes a
// full image itself. Updates are excluded only by two
// short holds of the update lock, at the start and at the flip; the
// checkpoint file is written while they keep committing (see
// checkpointNonBlocking). Enquiries proceed throughout.
// Concurrent Checkpoint calls serialize; each performs a full switch.
func (s *Store) Checkpoint() error {
	s.cpMu.Lock()
	s.cpInflight.Set(1)
	err := s.checkpointNonBlocking()
	s.cpInflight.Set(0)
	s.cpMu.Unlock()
	s.noteCheckpointErr(err)
	return err
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
// calls the hook installed by SetCheckpointStageHook, with the update lock
// released. The crashtest harness uses the stages to apply updates
// deterministically while a checkpoint is in flight, without racing
// goroutines.
type CheckpointStage string

const (
	// StageTailOpen: appends commit to the old log and are copied for the
	// new one. The checkpoint file has not been written.
	StageTailOpen CheckpointStage = "tail-open"
	// StageFileWritten: the checkpoint file and the new log, holding only
	// its head, exist; the version has not flipped.
	StageFileWritten CheckpointStage = "file-written"
	// StageFlipped: newversion is durably installed and the log appends to
	// the new file.
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

// checkpointNonBlocking is the store's one checkpoint: the paper's §3
// switch, with its file writes taken off the update lock.
//
//  1. Under the update lock: flush the commit pipeline (every applied update
//     becomes durable in the old log), record nextSeq, take the published
//     snapshot — or, for an unversioned root, pickle the root — and begin the
//     log's tail, a copy of every frame appended from here on.
//  2. Off the lock: pickle the snapshot, write and sync the checkpoint file,
//     and create the new log file holding its head.
//  3. The flip, under the update lock again: flush the old log, write the
//     tail into the new log file and sync it, commit the switch (newversion
//     durable) and retarget the log to the new file. Release the lock, then
//     install the version file and tidy what fell out of retention.
//
// Crash safety is the paper's own argument. Until newversion exists the old
// log is the commit point, and recovery clears the new version's debris.
// newversion is written only once the new log durably holds every entry from
// nextSeq on, and the lock keeps any entry from landing in between. The
// crashtest overlap sweep (cmd/crashtest -overlap) checks this at every fs
// op. No commit waits on the checkpoint's files, so their failure aborts the
// switch and leaves the store healthy.
//
// With a DeltaRoot, step 2 reads back the entries the old log holds up to
// nextSeq — every update applied since the previous checkpoint — and the
// snapshot folds them into a delta (DeltaOf), written as checkpointN.d,
// chaining onto the previous version. Everything else (tail, flip,
// retention) is identical. The checkpoint picks its image kind before it
// writes anything: a delta only while the chain holds fewer than
// MaxDeltaChain deltas and its delta bytes, this one's included, stay within
// MaxDeltaRatio of the base image's; a full image otherwise, which starts a
// fresh chain, and also when the range cannot be read whole or folded or is
// larger than the base image.
func (s *Store) checkpointNonBlocking() error {
	s.lockUpdate()
	s.mu.Lock()
	err := s.unusable()
	cur := s.cpState
	s.mu.Unlock()
	if err != nil {
		s.upd.Unlock()
		return err
	}

	log := s.log
	cpStart := time.Now()
	if err := log.Flush(); err != nil {
		s.poisonUnlessClosed(err)
		s.upd.Unlock()
		return err
	}
	// The flush made every applied update durable, but their committers
	// may still be waiting on it with their publications queued. Drain the
	// queue here — we hold the update lock, so applied is stable — or the
	// snapshot below would sit behind applied and force the
	// locked-pickle fallback.
	s.publishDurable(log.DurableSeq())
	s.mu.Lock()
	nextSeq := s.applied + 1
	s.mu.Unlock()
	logBytes := log.Size() // the entries from cpPrevSeq to nextSeq
	obs.Emit(s.tracer, obs.Event{Name: "checkpoint.start", Attrs: []obs.Attr{
		obs.A("version", cur.Version), obs.A("next_seq", nextSeq),
	}})

	// Pickle the root in memory. With a versioned root, the lock is held
	// only long enough to load the current published version — whose seq
	// is exactly applied, since appliers need the update lock we hold —
	// and the pickle itself runs after the lock is released, against the
	// immutable snapshot, concurrently with committing updates. With an
	// unversioned root the pickle is the one phase that excludes updates.
	p0 := time.Now()
	bufp := cpBufPool.Get().(*[]byte)
	buf := (*bufp)[:0]
	var perr error
	var snap *Snapshot
	if s.versioned {
		snap, perr = s.SnapshotAt()
		if perr == nil && snap.Seq() != nextSeq-1 {
			// Cannot happen while the update lock serializes applies;
			// fall back to the locked pickle rather than write a torn
			// checkpoint if the invariant is ever broken.
			snap = nil
		}
	}
	if snap == nil && perr == nil {
		buf, perr = pickle.AppendMarshal(buf, &header{NextSeq: nextSeq, Root: s.root})
	}
	pickleTime := time.Since(p0)
	if perr == nil {
		perr = log.BeginTail()
	}
	stall := time.Since(cpStart) // with the flip's hold, observed once
	s.upd.Unlock()
	defer func() { s.hist.cpStall.ObserveDuration(stall) }()
	if perr != nil {
		putCPBuf(bufp, buf)
		return perr
	}
	s.stageHook(StageTailOpen)

	// Off the lock until the flip: updates keep committing to the old log.
	// abort leaves the old version current and the store healthy.
	next := cur.Version + 1
	abort := func(err error) error {
		log.EndTail()
		checkpoint.Abort(s.cfg.FS, next)
		return err
	}
	var isDelta bool
	var subtrees int
	var curView any
	if snap != nil {
		ps := time.Now()
		curView = snap.Root()
		dr, ok := curView.(DeltaRoot)
		// A log range larger than the chain's full image, and than the
		// delta bytes MaxDeltaRatio lets the chain hold when that is more,
		// is not read back: the image written instead is smaller than the
		// log this checkpoint retires. A bulk load onto the empty initial
		// image is such a range, whose fold would pickle a tree-sized delta
		// only to fail MaxDeltaRatio. Below it, many updates of a few names
		// still fold into a delta of those names.
		foldable := float64(logBytes) <= max(1, s.maxDeltaRatio())*float64(s.baseBytes)
		if ok && s.cpPrevSeq != 0 && int(cur.Version-cur.Base) < s.maxDeltaChain() && foldable {
			delta, derr := dr.DeltaOf(s.loggedRange(cur.LogName(), nextSeq))
			if derr == nil {
				subtrees = deltaOps(delta)
				buf, derr = pickle.AppendMarshal(buf, &deltaHeader{
					Version: next, Parent: cur.Version,
					FromSeq: s.cpPrevSeq, NextSeq: nextSeq,
					Subtrees: subtrees, Delta: delta,
				})
				isDelta = derr == nil && float64(s.deltaBytes+int64(len(buf))) <= s.maxDeltaRatio()*float64(s.baseBytes)
			}
			if !isDelta {
				// A range the root cannot fold, or a log that cannot be
				// read whole, is not fatal, and an outsized delta saves
				// nothing: write the full image instead.
				buf, subtrees = buf[:0], 0
			}
		}
		if !isDelta {
			buf, perr = pickle.AppendMarshal(buf, &header{NextSeq: nextSeq, Root: curView})
		}
		pickleTime += time.Since(ps)
		if perr != nil {
			putCPBuf(bufp, buf)
			return abort(perr)
		}
	}
	cpBytes := int64(len(buf))
	ioStart := time.Now()
	var prepErr error
	if isDelta {
		_, prepErr = checkpoint.PrepareDelta(s.cfg.FS, cur, buf, s.cpOpts())
	} else {
		_, prepErr = checkpoint.Prepare(s.cfg.FS, cur, buf, s.cpOpts())
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
	s.stageHook(StageFileWritten)

	// The flip: under the update lock, no entry lands between the tail's
	// sync and the commit point.
	s.lockUpdate()
	flipStart := time.Now()
	unlock := func() {
		stall += time.Since(flipStart)
		s.upd.Unlock()
	}
	fail := func(err error) error {
		unlock()
		f.Close()
		return abort(err)
	}
	if err := log.Flush(); err != nil {
		// The old log's own failure: the commits it carried fail with it.
		s.poisonUnlessClosed(err)
		return fail(err)
	}
	tail, copied := log.EndTail()
	if len(tail) > 0 {
		if _, err = f.Write(tail); err == nil {
			err = f.Sync()
		}
	}
	if err == nil { // the commit point: newversion durably names next
		err = checkpoint.CommitNewVersion(s.cfg.FS, next)
	}
	if err != nil {
		return fail(err)
	}
	if err := log.Retarget(f); err != nil {
		// The switch is committed on disk, but this process cannot append
		// to the log recovery now reads.
		unlock()
		f.Close()
		s.poisonUnlessClosed(err)
		return err
	}
	newBase := next
	if isDelta {
		newBase = cur.Base
	}
	s.mu.Lock() // provisional state until Finish reports retention
	s.cpState = checkpoint.State{Version: next, Base: newBase, Retained: cur.Retained}
	s.logEntries = copied
	s.mu.Unlock()
	unlock()

	if err := checkpoint.InstallVersion(s.cfg.FS); err != nil {
		// The switch is committed on disk (a restart recovers the new
		// version) but this process cannot finish it; running on would
		// diverge from what recovery restores.
		s.poisonUnlessClosed(err)
		return err
	}
	s.stageHook(StageFlipped)

	// The switch is complete: disk is at version next whatever becomes of
	// the cleanup below, so the chain accounting and the next delta's base
	// move with it. curView is the published view this checkpoint
	// recorded — exactly what on-disk version next reconstructs to — and
	// the new log begins at nextSeq. (All under cpMu, which the caller
	// holds.)
	compacted := !isDelta && cur.Version > cur.Base
	if isDelta {
		s.deltaBytes += cpBytes
	} else {
		s.baseBytes, s.deltaBytes = cpBytes, 0
	}
	s.markDeltaBase(curView, nextSeq)

	// Retention cleanup last — after the log stopped touching the old
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
	if s.cfg.KeepLog != nil && !s.cfg.ArchiveLogs {
		s.pruneArchive()
	}
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
		if compacted {
			st.Compactions++
		}
	})
	if isDelta {
		s.ctr.deltaCheckpoints.Inc()
	}
	if compacted {
		s.ctr.compactions.Inc()
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
		obs.A("tail", copied),
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
	return checkpoint.Options{Retain: s.cfg.Retain, ArchiveLogs: s.cfg.ArchiveLogs || s.cfg.KeepLog != nil, Obs: s.cfg.Obs}
}

// pruneArchive deletes archived logs, oldest first, up to the first that
// holds an update KeepLog keeps or cannot be read whole. A failure leaves
// the rest to the next checkpoint.
func (s *Store) pruneArchive() {
	archived, _ := checkpoint.ArchivedLogs(s.cfg.FS)
	for _, v := range archived {
		name := checkpoint.ArchiveLogName(v)
		_, err := replayUpdates(s.cfg.FS, name, 0, wal.ReplayOptions{SkipDamaged: s.cfg.SkipDamagedLogEntries}, func(_ uint64, u Update) error {
			if s.cfg.KeepLog(u) {
				return errRangeEnd
			}
			return nil
		})
		if err != nil || s.cfg.FS.Remove(name) != nil {
			return
		}
	}
}

// History replays the database's log trail — with archived set, every
// archived log (Config.ArchiveLogs or KeepLog) first, then every retained
// log and the current log, in sequence order — calling fn for each update
// still on disk, up to the sequence of the version published when it
// starts (DurableSeq). It holds off a checkpoint's file switch (cpMu), but
// neither updates nor enquiries: committers append to the current log
// meanwhile, and the read stops at that sequence, which is durable,
// decoding nothing past it. The trail starts at the oldest log read;
// sequence continuity across files is verified.
func (s *Store) History(archived bool, fn func(seq uint64, u Update) error) error {
	// A background checkpoint renames and deletes log files; the trail
	// must not be read mid-switch.
	s.cpMu.Lock()
	defer s.cpMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	st := s.cpState
	s.mu.Unlock()
	through := s.DurableSeq()
	var files []string
	if archived {
		vs, err := checkpoint.ArchivedLogs(s.cfg.FS)
		if err != nil {
			return err
		}
		for _, v := range vs {
			files = append(files, checkpoint.ArchiveLogName(v))
		}
	}
	for _, v := range st.Retained {
		files = append(files, checkpoint.LogName(v))
	}
	files = append(files, st.LogName())

	// The oldest log may start anywhere. A later one starts at its
	// checkpoint's NextSeq, at or before where the one before it stopped:
	// the updates committed while that checkpoint ran are in both. fn sees
	// each once, and a gap between two logs fails.
	var next uint64
	for _, name := range files {
		first := true
		_, err := replayUpdates(s.cfg.FS, name, 0, wal.ReplayOptions{SkipDamaged: s.cfg.SkipDamagedLogEntries}, func(seq uint64, u Update) error {
			if first && next != 0 && seq > next {
				return fmt.Errorf("core: %s starts at sequence %d, want at most %d", name, seq, next)
			}
			first = false
			if seq >= next && seq <= through {
				next = seq + 1
				if err := fn(seq, u); err != nil {
					return err
				}
			}
			if seq >= through {
				return errRangeEnd
			}
			return nil
		})
		if errors.Is(err, errRangeEnd) {
			break
		} else if err != nil {
			return err
		}
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
	if sn := s.pub.Load(); sn != nil {
		return sn.seq
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

// openLog opens the store's redo log, the one file name, where the replay at
// left it; a fresh or emptied file takes this process's table as its head.
func (s *Store) openLog(name string, at wal.ReplayResult) (*wal.Log, error) {
	return wal.Open(s.cfg.FS, name, at, wal.Options{
		NoSync: s.cfg.UnsafeNoSync, Head: s.ownTab.Bytes(), Obs: s.cfg.Obs, Tracer: s.cfg.Tracer})
}
