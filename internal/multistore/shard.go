package multistore

import (
	"fmt"
	"sync"

	"smalldb/internal/core"
	"smalldb/internal/vfs"
)

// ShardsConfig configures a consistent-hash sharded namespace.
type ShardsConfig struct {
	// FS is the directory holding every group's checkpoints and log.
	FS vfs.FS
	// Groups names every group that may own keys; each becomes a Set
	// partition. The Set's partitions are fixed at open, but the routing
	// ring may start smaller (see Routed) and grow by AddGroup — the
	// capacity-expansion flow: provision the partition first, then move
	// its key range onto it.
	Groups []string
	// Routed optionally restricts the initial ring to a subset of Groups;
	// empty means all of Groups are routed from the start.
	Routed []string
	// NewRoot constructs an empty per-group root.
	NewRoot func() any
	// VNodes is the virtual-node count per group (0 = DefaultVNodes).
	VNodes int
}

// Shards routes a flat key space across replica-group partitions by
// consistent hashing. Routing mutations (AddGroup, RemoveGroup) are safe
// against concurrent Apply/View traffic: a rebalance changes only which
// partition future writes land in, never the data already written.
type Shards struct {
	set *Set

	mu   sync.RWMutex
	ring *Ring
}

// OpenShards opens (or recovers) the sharded namespace.
func OpenShards(cfg ShardsConfig) (*Shards, error) {
	if len(cfg.Groups) == 0 {
		return nil, ErrNoGroups
	}
	if cfg.NewRoot == nil {
		return nil, fmt.Errorf("multistore: ShardsConfig.NewRoot is required")
	}
	parts := make(map[string]func() any, len(cfg.Groups))
	for _, g := range cfg.Groups {
		parts[g] = cfg.NewRoot
	}
	if len(parts) != len(cfg.Groups) {
		return nil, fmt.Errorf("multistore: duplicate group in %v", cfg.Groups)
	}
	routed := cfg.Routed
	if len(routed) == 0 {
		routed = cfg.Groups
	}
	for _, g := range routed {
		if _, ok := parts[g]; !ok {
			return nil, fmt.Errorf("%w: routed group %q not in Groups", ErrUnknownGroup, g)
		}
	}
	ring, err := NewRing(cfg.VNodes, routed...)
	if err != nil {
		return nil, err
	}
	set, err := Open(Config{FS: cfg.FS, Partitions: parts})
	if err != nil {
		return nil, err
	}
	return &Shards{set: set, ring: ring}, nil
}

// Owner reports which group currently owns key.
func (s *Shards) Owner(key string) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Owner(key)
}

// Apply routes one update to key's owning group and commits it there.
// It reports the owner it chose, so callers recording placement (or
// forwarding to that group's primary) know where the key landed.
func (s *Shards) Apply(key string, u core.Update) (owner string, err error) {
	owner = s.Owner(key)
	return owner, s.set.Apply(owner, u)
}

// View runs an enquiry against key's owning group.
func (s *Shards) View(key string, fn func(root any) error) error {
	return s.set.View(s.Owner(key), fn)
}

// ViewGroup runs an enquiry against a named group.
func (s *Shards) ViewGroup(group string, fn func(root any) error) error {
	return s.set.View(group, fn)
}

// AddGroup moves ~1/N of the key space onto an already-provisioned
// partition (it must be one of the config's Groups).
func (s *Shards) AddGroup(group string) error {
	if _, err := s.set.Store(group); err != nil {
		return fmt.Errorf("%w: %q has no partition", ErrUnknownGroup, group)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Add(group)
}

// RemoveGroup routes a group's key range back to its ring successors
// (say, ahead of decommissioning the group).
func (s *Shards) RemoveGroup(group string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ring.Remove(group)
}

// Routed lists the groups currently receiving traffic, sorted.
func (s *Shards) Routed() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.ring.Groups()
}

// Checkpoint checkpoints one group's partition.
func (s *Shards) Checkpoint(group string) error { return s.set.Checkpoint(group) }

// Set exposes the underlying partition set (per-group stores and
// checkpoints).
func (s *Shards) Set() *Set { return s.set }

// Close closes the underlying set.
func (s *Shards) Close() error { return s.set.Close() }
