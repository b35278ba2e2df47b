// Lock-free snapshot enquiries: copy-on-write versions of the database
// root, published through an atomic pointer, with epoch-based reclamation.
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
// Reclamation is epoch-based. A global epoch advances on every publish;
// readers pin the epoch they entered at into one of a fixed array of
// slots; a superseded version is stamped with the epoch that retired it
// and reclaimed once every pinned epoch is newer. In Go the garbage
// collector makes a stale version memory-safe regardless — "reclaiming"
// here means dropping the store's own reference so the GC can collect it —
// so the epoch machinery's jobs are to bound how many superseded versions
// the store retains, to make retention observable (core_versions_retained,
// core_reader_pins), and to keep the protocol honest for a port to a
// non-collected runtime.
package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"smalldb/internal/obs"
)

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

// version is one published, immutable state of the database.
type version struct {
	root any    // the VersionedRoot's snapshot view; never mutated
	seq  uint64 // sequence of the last update applied to it
	// retireEpoch is the epoch whose publish superseded this version; set
	// by the writer when the version is retired, read by reclamation.
	retireEpoch uint64
}

// pinSlots is the size of the reader-pin table. Claiming is a bounded
// probe, so more concurrent pinned readers than slots degrades gracefully
// to unpinned (GC-backed) reads rather than blocking.
const pinSlots = 64

// pinSlot is one reader-pin entry, padded to its own cache line so
// concurrent readers on different slots do not false-share.
type pinSlot struct {
	// epoch holds 0 when free, pinned-epoch+1 when claimed.
	epoch atomic.Uint64
	_     [56]byte
}

// versionSet is the store's version-publication state. The zero value is
// an unversioned store (pub stays nil and View falls back to the lock).
type versionSet struct {
	pub   atomic.Pointer[version]
	epoch atomic.Uint64
	slots [pinSlots]pinSlot
	rr    atomic.Uint32 // round-robin hint for slot claiming

	// mu guards retired. Publishes are serialized by the store's write
	// path already; the mutex makes reclamation callable from tests and
	// keeps the invariant local.
	mu      sync.Mutex
	retired []*version
}

// versionMetrics wires the version machinery into a registry; all fields
// are nil-safe.
type versionMetrics struct {
	published   *obs.Counter
	reclaimed   *obs.Counter
	pinOverflow *obs.Counter
	locked      *obs.Counter
}

// initVersionObs registers the version gauges and counters.
func (s *Store) initVersionObs(reg *obs.Registry) {
	s.vm.published = reg.Counter("core_versions_published")
	s.vm.reclaimed = reg.Counter("core_versions_reclaimed")
	s.vm.pinOverflow = reg.Counter("core_enquiry_pin_overflow")
	s.vm.locked = reg.Counter("core_enquiries_locked")
	if reg == nil {
		return
	}
	reg.Register("core_version_epoch", func() any { return int64(s.vs.epoch.Load()) })
	reg.Register("core_versions_retained", func() any { return int64(s.RetainedVersions()) })
	reg.Register("core_reader_pins", func() any { return int64(s.vs.pinnedReaders()) })
}

// pinnedReaders counts currently claimed pin slots.
func (v *versionSet) pinnedReaders() int {
	n := 0
	for i := range v.slots {
		if v.slots[i].epoch.Load() != 0 {
			n++
		}
	}
	return n
}

// publish makes view the current version at seq, retires the previous one
// and reclaims every retired version no pinned reader can still hold.
// Called only from the store's serialized write path (the exclusive
// section of an apply, or single-threaded recovery).
func (v *versionSet) publish(view any, seq uint64, published, reclaimed *obs.Counter) {
	e := v.epoch.Add(1)
	old := v.pub.Swap(&version{root: view, seq: seq})
	published.Inc()
	if old == nil {
		return
	}
	old.retireEpoch = e
	v.mu.Lock()
	v.retired = append(v.retired, old)
	v.reclaim(reclaimed)
	v.mu.Unlock()
}

// reclaim drops retired versions whose retire epoch precedes every pinned
// reader. Callers hold v.mu.
//
// Safety: a reader pins epoch p (read from v.epoch) before loading the
// version pointer. Publishes are serialized and each advances the epoch
// before swapping the pointer, so a reader that pinned p > retireEpoch(V)
// observed an epoch advance that happens after the swap which retired V —
// its subsequent pointer load cannot return V. A reader whose pin was not
// yet visible when we scan the slots claimed its slot after our scan read
// it free, which orders its pointer load after the retiring swap too.
// Hence: no pin ≤ retireEpoch(V) observed ⇒ no reader holds V.
func (v *versionSet) reclaim(reclaimed *obs.Counter) {
	minPinned := uint64(0) // 0 = no pinned readers
	for i := range v.slots {
		if p := v.slots[i].epoch.Load(); p != 0 {
			if pin := p - 1; minPinned == 0 || pin < minPinned {
				minPinned = pin
			}
		}
	}
	kept := v.retired[:0]
	for _, old := range v.retired {
		if minPinned != 0 && old.retireEpoch >= minPinned {
			kept = append(kept, old)
			continue
		}
		reclaimed.Inc()
	}
	// Drop the reclaimed tail's pointers so the GC can collect the roots.
	for i := len(kept); i < len(v.retired); i++ {
		v.retired[i] = nil
	}
	v.retired = kept
}

// pin claims a slot and records the current epoch in it, returning the
// slot (nil when the table is full — the caller proceeds unpinned, which
// is safe under GC but exempts it from retention accounting).
func (v *versionSet) pin() *pinSlot {
	e := v.epoch.Load() + 1 // stored value; 0 means free
	start := v.rr.Add(1)
	for i := uint32(0); i < pinSlots; i++ {
		s := &v.slots[(start+i)%pinSlots]
		if s.epoch.CompareAndSwap(0, e) {
			return s
		}
	}
	return nil
}

// unpin releases a slot claimed by pin.
func (v *versionSet) unpin(s *pinSlot) {
	if s != nil {
		s.epoch.Store(0)
	}
}

// Snapshot is a pinned, immutable view of the database at one committed
// sequence number. It stays valid — and exempt from reclamation — until
// Release. A Snapshot is obtained lock-free; holding one never blocks
// updates or checkpoints.
type Snapshot struct {
	vs   *versionSet
	v    *version
	slot *pinSlot
}

// SnapshotAt returns a pinned snapshot of the current published version.
// The snapshot's Root is safe to read concurrently with every store
// operation; callers must Release it when done (Release is cheap and
// idempotent via the nil slot path, but call it exactly once).
func (s *Store) SnapshotAt() (*Snapshot, error) {
	slot := s.vs.pin()
	v := s.vs.pub.Load()
	if v == nil {
		s.vs.unpin(slot)
		return nil, ErrNotVersioned
	}
	if slot == nil {
		s.vm.pinOverflow.Inc()
	}
	return &Snapshot{vs: &s.vs, v: v, slot: slot}, nil
}

// Seq reports the sequence number of the last update included in the
// snapshot.
func (sn *Snapshot) Seq() uint64 { return sn.v.seq }

// Root returns the snapshot's immutable database root.
func (sn *Snapshot) Root() any { return sn.v.root }

// View runs fn on the snapshot's root, mirroring Store.View's shape so
// read helpers can run against either.
func (sn *Snapshot) View(fn func(root any) error) error { return fn(sn.v.root) }

// Release unpins the snapshot. The underlying version becomes reclaimable
// once every other pin of an epoch at or before its retirement is gone.
func (sn *Snapshot) Release() {
	sn.vs.unpin(sn.slot)
	sn.slot = nil
}

// RetainedVersions reports how many superseded versions the store still
// holds for pinned readers (the current version is not counted).
func (s *Store) RetainedVersions() int {
	s.vs.mu.Lock()
	defer s.vs.mu.Unlock()
	return len(s.vs.retired)
}

// LockHolders reports the three-mode lock's current holder counts
// (shared, update, exclusive) — the sulock holder assertion tests use to
// prove that versioned enquiries take zero locks.
func (s *Store) LockHolders() (shared int, update, exclusive bool) {
	return s.lock.Holders()
}
