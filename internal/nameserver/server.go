package nameserver

import (
	"fmt"
	"time"

	"smalldb/internal/core"
	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

// Config configures a name server.
type Config struct {
	// FS holds the checkpoint and log files.
	FS vfs.FS
	// Retain and the checkpoint policies pass through to the underlying
	// store.
	Retain        int
	UnsafeNoSync  bool
	MaxLogBytes   int64
	MaxLogEntries int64
	// SkipDamagedLogEntries passes through; name-server updates are
	// independent enough for the paper's skip-the-damaged-entry story.
	SkipDamagedLogEntries bool
	// ReplayWorkers passes through to the store's restart decode
	// pipeline (0 = auto, 1 = sequential).
	ReplayWorkers int
	// LogShards passes through: the redo log's stream count (0 and 1 are
	// the single stream; more is incompatible with SkipDamagedLogEntries).
	LogShards int
	// Deterministic passes through: epoch seals sync their streams one at
	// a time and a due compaction runs inside the checkpoint that tripped
	// it (the crash-sweep determinism knob).
	Deterministic bool
	// MaxDeltaChain and MaxDeltaRatio pass through: the delta-chain
	// compaction thresholds (0 = the store defaults).
	MaxDeltaChain int
	MaxDeltaRatio float64
	// Obs and Tracer pass through to the store's instrumentation.
	Obs    *obs.Registry
	Tracer obs.Tracer
}

// Server is a name server: the paper's worked example, its whole database a
// tree of string-labelled arcs in virtual memory.
type Server struct {
	store *core.Store
}

// Open recovers (or initializes) a name server from cfg.FS.
func Open(cfg Config) (*Server, error) {
	st, err := core.Open(core.Config{
		FS:                    cfg.FS,
		NewRoot:               NewRoot,
		Retain:                cfg.Retain,
		UnsafeNoSync:          cfg.UnsafeNoSync,
		MaxLogBytes:           cfg.MaxLogBytes,
		MaxLogEntries:         cfg.MaxLogEntries,
		SkipDamagedLogEntries: cfg.SkipDamagedLogEntries,
		ReplayWorkers:         cfg.ReplayWorkers,
		LogShards:             cfg.LogShards,
		Deterministic:         cfg.Deterministic,
		MaxDeltaChain:         cfg.MaxDeltaChain,
		MaxDeltaRatio:         cfg.MaxDeltaRatio,
		Obs:                   cfg.Obs,
		Tracer:                cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return &Server{store: st}, nil
}

// Store exposes the underlying store (for replication and experiments).
func (s *Server) Store() *core.Store { return s.store }

// --- enquiries: shared lock, no disk ---

// Lookup returns the value bound to name.
func (s *Server) Lookup(name string) (string, error) {
	parts, err := SplitPath(name)
	if err != nil {
		return "", err
	}
	var val string
	err = s.store.View(func(root any) error {
		t, err := treeOf(root)
		if err != nil {
			return err
		}
		val, err = t.Lookup(parts)
		return err
	})
	return val, err
}

// List returns the sorted child labels under name.
func (s *Server) List(name string) ([]string, error) {
	parts, err := SplitPath(name)
	if err != nil {
		return nil, err
	}
	var out []string
	err = s.store.View(func(root any) error {
		t, err := treeOf(root)
		if err != nil {
			return err
		}
		out, err = t.List(parts)
		return err
	})
	return out, err
}

// Enumerate calls fn for every (name, value) pair at or below name, in
// depth-first sorted order — the paper's browsing operation. Returning a
// non-nil error from fn stops the walk.
func (s *Server) Enumerate(name string, fn func(name, value string) error) error {
	parts, err := SplitPath(name)
	if err != nil {
		return err
	}
	return s.store.View(func(root any) error {
		t, err := treeOf(root)
		if err != nil {
			return err
		}
		return t.Enumerate(parts, fn)
	})
}

// SubtreeCopy returns a deep copy of the subtree at name; replication uses
// it for snapshots.
func (s *Server) SubtreeCopy(name string) (*Node, error) {
	parts, err := SplitPath(name)
	if err != nil {
		return nil, err
	}
	var out *Node
	err = s.store.View(func(root any) error {
		t, err := treeOf(root)
		if err != nil {
			return err
		}
		n := t.find(parts)
		if n == nil {
			return fmt.Errorf("%w: %s", ErrNotFound, JoinPath(parts))
		}
		out = copyNode(n)
		return nil
	})
	return out, err
}

// Count reports the number of nodes in the whole tree.
func (s *Server) Count() (int, error) {
	var n int
	err := s.store.View(func(root any) error {
		t, err := treeOf(root)
		if err != nil {
			return err
		}
		n = countNodes(t.Root)
		return nil
	})
	return n, err
}

// --- updates: single-shot transactions ---

// Set binds value to name, creating intermediate names.
func (s *Server) Set(name, value string) error {
	return s.SetTraced(name, value, obs.SpanContext{})
}

// SetTraced is Set under a trace context: the commit's phase spans land in
// the caller's trace.
func (s *Server) SetTraced(name, value string, sc obs.SpanContext) error {
	parts, err := SplitPath(name)
	if err != nil {
		return err
	}
	return s.store.ApplyTraced(&SetValue{Path: parts, Value: value}, sc)
}

// Delete removes name and its whole subtree.
func (s *Server) Delete(name string) error {
	return s.DeleteTraced(name, obs.SpanContext{})
}

// DeleteTraced is Delete under a trace context.
func (s *Server) DeleteTraced(name string, sc obs.SpanContext) error {
	parts, err := SplitPath(name)
	if err != nil {
		return err
	}
	return s.store.ApplyTraced(&DeleteSubtree{Path: parts}, sc)
}

// Put installs subtree at name, replacing any existing subtree. The subtree
// may spell a node's children as Arcs or as the Children map; it is copied,
// never kept.
func (s *Server) Put(name string, subtree *Node) error {
	parts, err := SplitPath(name)
	if err != nil {
		return err
	}
	return s.store.Apply(&PutSubtree{Path: parts, Subtree: subtree})
}

// Rename moves the subtree at from to to.
func (s *Server) Rename(from, to string) error {
	f, err := SplitPath(from)
	if err != nil {
		return err
	}
	tt, err := SplitPath(to)
	if err != nil {
		return err
	}
	return s.store.Apply(&Move{From: f, To: tt})
}

// --- administration ---

// Checkpoint writes a checkpoint now.
func (s *Server) Checkpoint() error { return s.store.Checkpoint() }

// CheckpointEvery checkpoints on a timer — "a checkpoint each night".
func (s *Server) CheckpointEvery(d time.Duration) { s.store.CheckpointEvery(d) }

// Stats returns the underlying store's instrumentation.
func (s *Server) Stats() core.Stats { return s.store.Stats() }

// Close closes the server.
func (s *Server) Close() error { return s.store.Close() }
