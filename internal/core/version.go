// Lock-free snapshot enquiries: copy-on-write versions of the database
// root, published through one atomic pointer.
//
// The paper's three-mode lock already keeps enquiries running during disk
// transfers; what it cannot do is keep them running during the in-memory
// apply — the exclusive section excludes every reader for the duration of
// the virtual-memory mutation. With a root whose updates are persistent
// (copy-on-write along the touched path, everything else structurally
// shared), the writer can instead build the next version privately and
// publish it with one atomic store ordered after the WAL commit. An
// enquiry then loads the current version pointer and pointer-chases with
// no lock, no blocking and no exclusion window at all.
//
// Opt-in: a root type that implements VersionedRoot promises that a value
// returned by SnapshotView is never mutated again by later updates, so the
// store may hand it to concurrent readers. The nameserver tree and the
// replica root implement it; a root that does not keeps the paper's
// shared-lock enquiries.
//
// The store keeps no superseded version: a publish overwrites the pointer,
// and Go's garbage collector frees a version once no reader holds it — the
// paper's Modula-2+ runtime dropped superseded structures the same way.
package core

import "errors"

// VersionedRoot is implemented by database roots that support lock-free
// snapshot enquiries. SnapshotView returns a view of the current state —
// typically a fresh wrapper sharing all interior structure — that will
// never be mutated by any later update: every subsequent Apply must be
// copy-on-write with respect to everything reachable from the returned
// value. SnapshotView is called by the store's single writer (under the
// exclusive lock, or during single-threaded recovery), immediately after
// each update applies.
type VersionedRoot interface {
	SnapshotView() any
}

// ErrNotVersioned is returned by SnapshotAt when the store's root does not
// implement VersionedRoot.
var ErrNotVersioned = errors.New("core: root is not versioned")

// Snapshot is one published, immutable state of the database at a
// committed sequence number. It is obtained lock-free, holding one never
// blocks updates or checkpoints, and it stays valid for as long as the
// caller keeps it.
type Snapshot struct {
	root any    // the VersionedRoot's snapshot view; never mutated
	seq  uint64 // sequence of the last update applied to it
}

// SnapshotAt returns the current published version. The snapshot's Root is
// safe to read concurrently with every store operation.
func (s *Store) SnapshotAt() (*Snapshot, error) {
	sn := s.pub.Load()
	if sn == nil {
		return nil, ErrNotVersioned
	}
	return sn, nil
}

// Seq reports the sequence number of the last update included in the
// snapshot.
func (sn *Snapshot) Seq() uint64 { return sn.seq }

// Root returns the snapshot's immutable database root.
func (sn *Snapshot) Root() any { return sn.root }
