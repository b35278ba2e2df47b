package smalldb

import (
	"smalldb/internal/multistore"
)

// MultiConfig configures a MultiStore: the §7 extension where one large
// database is handled as several independently checkpointed partitions, each
// a Store with its own log in the one directory. See the package
// documentation of internal/multistore for the directory layout.
type MultiConfig = multistore.Config

// MultiStore is a set of partitions, each a Store (View/Apply with the same
// Update contract); Checkpoint takes a partition name and blocks, and empties
// the log of, only that partition. Store(name) returns the partition's Store.
type MultiStore = multistore.Set

// ErrNoPartition is returned for unknown partition names.
var ErrNoPartition = multistore.ErrNoPartition

// OpenMulti recovers (or initializes) a partitioned store set.
func OpenMulti(cfg MultiConfig) (*MultiStore, error) { return multistore.Open(cfg) }
