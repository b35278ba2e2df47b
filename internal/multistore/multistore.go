// Package multistore implements the paper's §7 scaling suggestion: "many
// larger databases (for example the directories of a large file system)
// could be handled by considering them as multiple separate databases for
// the purpose of writing checkpoints. In that case, we could either use
// multiple log files or a single log file with more complicated rules for
// flushing the log."
//
// A Set takes the first branch. Each named partition is a core.Store of its
// own — its own checkpoints and its own log — so a busy partition
// checkpoints often, a quiet one never pays, and checkpointing one partition
// neither blocks nor empties any other's log. An update is still exactly one
// disk write: the partition's own log append.
//
// One log per partition loses no ordering recovery needs: a log need only
// order updates that conflict ("Guaranteeing Recoverability via Partially
// Constrained Transaction Logs", PAPERS.md), and updates to different
// partitions never do, so each partition's own log order is the whole
// constraint. Recovery is each store's own.
//
// Disk layout (one directory): partition <part>'s store keeps its files
// under the names <part>-<file> (vfs.Prefixed), which is why partition names
// may not contain '-'. Open refuses any other file name, so a partition
// dropped from the config, or a directory in another layout, fails loudly
// instead of opening as empty partitions.
package multistore

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"smalldb/internal/core"
	"smalldb/internal/vfs"
)

// ErrNoPartition is returned for an unknown partition name, and by Open for
// a file that belongs to no configured partition.
var ErrNoPartition = errors.New("multistore: no such partition")

// Config configures a Set.
type Config struct {
	// FS is the directory holding every partition's checkpoints and log.
	FS vfs.FS
	// Partitions maps each partition name to its empty-root constructor.
	// Names may not contain '-' (it ends the partition's file-name prefix).
	Partitions map[string]func() any
}

// Set is an open collection of partitions, each a core.Store. A closed
// partition returns core.ErrClosed.
type Set struct {
	parts map[string]*core.Store
}

// Open recovers (or initializes) every partition of a Set.
func Open(cfg Config) (*Set, error) {
	if cfg.FS == nil {
		return nil, fmt.Errorf("multistore: Config.FS is required")
	}
	if len(cfg.Partitions) == 0 {
		return nil, fmt.Errorf("multistore: no partitions configured")
	}
	for name := range cfg.Partitions {
		if name == "" || strings.ContainsAny(name, "-/\\") {
			return nil, fmt.Errorf("multistore: invalid partition name %q", name)
		}
	}
	names, err := cfg.FS.List()
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if part, _, ok := strings.Cut(n, "-"); !ok || cfg.Partitions[part] == nil {
			return nil, fmt.Errorf("%w: file %q is not <partition>-<name> for a configured partition (partition removed from config?)", ErrNoPartition, n)
		}
	}
	s := &Set{parts: make(map[string]*core.Store, len(cfg.Partitions))}
	// Sorted, so a Set's file-operation order is a function of its calls.
	for _, name := range sortedKeys(cfg.Partitions) {
		st, err := core.Open(core.Config{FS: vfs.NewPrefixed(cfg.FS, name+"-"), NewRoot: cfg.Partitions[name]})
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("multistore: partition %s: %w", name, err)
		}
		s.parts[name] = st
	}
	return s, nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Partitions lists the partition names, sorted.
func (s *Set) Partitions() []string { return sortedKeys(s.parts) }

// Store returns one partition's store, for its stats and anything else the
// Set does not forward.
func (s *Set) Store(part string) (*core.Store, error) {
	st, ok := s.parts[part]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoPartition, part)
	}
	return st, nil
}

// View runs an enquiry on one partition.
func (s *Set) View(part string, fn func(root any) error) error {
	st, err := s.Store(part)
	if err != nil {
		return err
	}
	return st.View(fn)
}

// Apply commits one update to one partition: the §3 protocol, with the log
// entry appended to the partition's own log — one disk write.
func (s *Set) Apply(part string, u core.Update) error {
	st, err := s.Store(part)
	if err != nil {
		return err
	}
	return st.Apply(u)
}

// Checkpoint checkpoints one partition and empties its log. Only that
// partition's updates are excluded, and only while its root pickles; every
// other partition runs, and keeps its log, untouched.
func (s *Set) Checkpoint(part string) error {
	st, err := s.Store(part)
	if err != nil {
		return err
	}
	return st.Checkpoint()
}

// Close closes every partition.
func (s *Set) Close() error {
	var errs []error
	for _, st := range s.parts {
		errs = append(errs, st.Close())
	}
	return errors.Join(errs...)
}
