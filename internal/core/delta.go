package core

// DeltaRoot is the contract a root type implements to get incremental
// delta checkpoints: instead of pickling the whole root every time, the
// store pickles only the difference since the previous checkpoint's
// published view, chained onto the last full image on disk (see
// internal/checkpoint's delta-chain notes for the file protocol).
//
// It extends VersionedRoot because the delta machinery rides the same
// copy-on-write snapshots that power lock-free enquiries: the store pins
// the published view at each checkpoint and diffs the next checkpoint's
// view against it, with no locking and no extra bookkeeping on the update
// path. An unversioned root always checkpoints in full.
type DeltaRoot interface {
	VersionedRoot

	// DeltaSince returns a pickleable value transforming prev — an
	// earlier SnapshotView of this root — into this root's state. Both
	// views are immutable; the receiver is the newer one. The returned
	// value's concrete type must be registered with pickle.Register.
	DeltaSince(prev any) (any, error)

	// ApplyDelta applies a value produced by DeltaSince to this root,
	// which must hold the state of the view the delta was diffed against.
	// Recovery calls it on the chain's loaded base, oldest delta first.
	// The delta's ownership transfers to the root: decoded subtrees may be
	// shared rather than copied, so a delta must not be applied twice.
	ApplyDelta(delta any) error
}

// deltaOpCounter is optionally implemented by DeltaSince results to report
// how many subtree operations the delta holds, for checkpoint headers and
// inspection tooling.
type deltaOpCounter interface{ DeltaOps() int }

// Defaults for the compaction thresholds; see Config.MaxDeltaChain and
// Config.MaxDeltaRatio.
const (
	DefaultMaxDeltaChain = 8
	DefaultMaxDeltaRatio = 0.5
)

func (s *Store) maxDeltaChain() int {
	if s.cfg.MaxDeltaChain > 0 {
		return s.cfg.MaxDeltaChain
	}
	return DefaultMaxDeltaChain
}

func (s *Store) maxDeltaRatio() float64 {
	if s.cfg.MaxDeltaRatio > 0 {
		return s.cfg.MaxDeltaRatio
	}
	return DefaultMaxDeltaRatio
}

// deltaOps counts a delta's subtree operations, 0 when it doesn't say.
func deltaOps(delta any) int {
	if c, ok := delta.(deltaOpCounter); ok {
		return c.DeltaOps()
	}
	return 0
}
