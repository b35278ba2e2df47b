package nameserver

import (
	"time"

	"smalldb/internal/core"
	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

// Config configures a name server.
type Config struct {
	// FS holds the checkpoint and log files.
	FS vfs.FS
	// Retain and the checkpoint policy pass through to the underlying
	// store.
	Retain        int
	UnsafeNoSync  bool
	MaxLogEntries int64
	// MaxDeltaChain and MaxDeltaRatio pass through: the bounds past which
	// a checkpoint writes a full image (0 = the store defaults).
	MaxDeltaChain int
	MaxDeltaRatio float64
	// Obs and Tracer pass through to the store's instrumentation.
	Obs    *obs.Registry
	Tracer obs.Tracer
}

// Server is a name server: the paper's worked example, its whole database a
// tree of string-labelled arcs in virtual memory. Its enquiries read the
// store's tree; every update goes through its commit, which is the store's
// own for a lone server and a replica node's replicated one.
type Server struct {
	store  *core.Store
	commit func([]core.Update, obs.SpanContext) error
}

// NewServer serves the name tree in st, committing every update through
// commit (a zero span context is an untraced commit).
func NewServer(st *core.Store, commit func([]core.Update, obs.SpanContext) error) *Server {
	return &Server{store: st, commit: commit}
}

// Open recovers (or initializes) a name server from cfg.FS.
func Open(cfg Config) (*Server, error) {
	st, err := core.Open(core.Config{
		FS:            cfg.FS,
		NewRoot:       NewRoot,
		Retain:        cfg.Retain,
		UnsafeNoSync:  cfg.UnsafeNoSync,
		MaxLogEntries: cfg.MaxLogEntries,
		MaxDeltaChain: cfg.MaxDeltaChain,
		MaxDeltaRatio: cfg.MaxDeltaRatio,
		Obs:           cfg.Obs,
		Tracer:        cfg.Tracer,
	})
	if err != nil {
		return nil, err
	}
	return NewServer(st, func(us []core.Update, sc obs.SpanContext) error {
		_, err := st.ApplyBatchTraced(us, sc, nil)
		return err
	}), nil
}

// Store exposes the underlying store (for replication and experiments). An
// update applied to it directly bypasses the server's commit.
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
		t, err := TreeOf(root)
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
		t, err := TreeOf(root)
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
		t, err := TreeOf(root)
		if err != nil {
			return err
		}
		return t.Enumerate(parts, fn)
	})
}

// Count reports the number of nodes in the whole tree.
func (s *Server) Count() (int, error) {
	var n int
	err := s.store.View(func(root any) error {
		t, err := TreeOf(root)
		if err != nil {
			return err
		}
		n = countNodes(t.Root)
		return nil
	})
	return n, err
}

// --- updates: single-shot transactions, each through commit ---

// Apply commits one update.
func (s *Server) Apply(u core.Update) error {
	return s.commit([]core.Update{u}, obs.SpanContext{})
}

// ApplyBatch commits a batch of updates through one commit, with the
// prefix semantics of core.Store.ApplyBatch.
func (s *Server) ApplyBatch(us []core.Update) error {
	return s.commit(us, obs.SpanContext{})
}

// ApplyTraced commits one update under a trace context: when sc belongs to
// a trace, the commit's phase spans land in it. A zero sc is Apply.
func (s *Server) ApplyTraced(u core.Update, sc obs.SpanContext) error {
	return s.commit([]core.Update{u}, sc)
}

// Set binds value to name, creating intermediate names.
func (s *Server) Set(name, value string) error {
	parts, err := SplitPath(name)
	if err != nil {
		return err
	}
	return s.Apply(&SetValue{Path: parts, Value: value})
}

// Delete removes name and its whole subtree.
func (s *Server) Delete(name string) error {
	parts, err := SplitPath(name)
	if err != nil {
		return err
	}
	return s.Apply(&DeleteSubtree{Path: parts})
}

// Put installs subtree at name, replacing any existing subtree. The subtree
// may spell a node's children as Arcs or as the Children map; it is copied,
// never kept.
func (s *Server) Put(name string, subtree *Node) error {
	parts, err := SplitPath(name)
	if err != nil {
		return err
	}
	return s.Apply(&PutSubtree{Path: parts, Subtree: subtree})
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
	return s.Apply(&Move{From: f, To: tt})
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
