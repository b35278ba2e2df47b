package core

import (
	"errors"
	"fmt"

	"smalldb/internal/wal"
)

// DeltaRoot is the contract a root type implements to get incremental
// delta checkpoints: instead of pickling the whole root every time, the
// store pickles only what changed since the previous checkpoint, chained
// onto the last full image on disk (see internal/checkpoint's delta-chain
// notes for the file protocol).
//
// The paper's disk already says what changed: the log a checkpoint retires
// holds every update applied since the previous one (§3). So the store pins
// nothing between checkpoints. It keeps that checkpoint's first log
// sequence, and at the next checkpoint reads the retiring log's entries back
// and hands them to the new snapshot's DeltaOf, which folds them into a
// delta against itself. A range it cannot read whole, one larger than the
// base image or one the root cannot fold gets a full image.
// DeltaRoot extends VersionedRoot because the fold reads the immutable
// snapshot the checkpoint records; an unversioned root checkpoints in full.
type DeltaRoot interface {
	VersionedRoot

	// DeltaOf returns a pickleable value turning the state of an earlier
	// view into the state of this immutable view. updates calls each on
	// every update applied between the two, in log order, and returns the
	// first error, each's included. An error is not fatal: the checkpoint
	// writes a full image. The returned value's concrete type must be
	// registered with pickle.Register.
	DeltaOf(updates func(each func(Update) error) error) (any, error)

	// ApplyDelta applies a value produced by DeltaOf to this root, which
	// must hold the state of the view the delta was folded from.
	// Recovery calls it on the chain's loaded base, oldest delta first.
	// The delta's ownership transfers to the root: decoded subtrees may be
	// shared rather than copied, so a delta must not be applied twice.
	ApplyDelta(delta any) error
}

// deltaOpCounter is optionally implemented by DeltaOf results to report
// how many subtree operations the delta holds, for checkpoint headers and
// inspection tooling.
type deltaOpCounter interface{ DeltaOps() int }

// Defaults for the bounds past which a checkpoint writes a full image; see
// Config.MaxDeltaChain and Config.MaxDeltaRatio.
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

// errRangeEnd stops a read of a log that committers may still append to at
// its last entry wanted.
var errRangeEnd = errors.New("core: end of the folded range")

// loggedRange returns the iterator DeltaOf folds: the updates the named log
// holds from s.cpPrevSeq up to nextSeq, exclusive, which are those applied
// since the previous checkpoint and before this one's snapshot. Committers
// append to the log meanwhile; the read stops at entry nextSeq-1, which the
// checkpoint's flush made durable, and decodes nothing past it. A range that
// is not all there, in order and readable, is an error.
func (s *Store) loggedRange(logName string, nextSeq uint64) func(each func(Update) error) error {
	from := s.cpPrevSeq
	return func(each func(Update) error) error {
		if from == nextSeq {
			return nil
		}
		_, err := replayUpdates(s.cfg.FS, logName, from, wal.ReplayOptions{}, func(seq uint64, u Update) error {
			if err := each(u); err != nil {
				return err
			}
			if seq == nextSeq-1 {
				return errRangeEnd
			}
			return nil
		})
		switch {
		case errors.Is(err, errRangeEnd):
			return nil
		case err == nil:
			return fmt.Errorf("core: %s ends before entry %d", logName, nextSeq-1)
		}
		return err
	}
}
