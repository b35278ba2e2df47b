package core

import (
	"sync"
	"time"

	"smalldb/internal/obs"
)

// The paper's three-mode lock (§3) is two standard locks on the Store:
//
//	           shared     update     exclusive
//	shared    compatible compatible  conflict
//	update    compatible  conflict   conflict
//	exclusive  conflict   conflict   conflict
//
// Update mode holds upd, a sync.Mutex: updaters and checkpoints exclude
// each other while enquiries run. Shared mode is RLock on rw.
// Exclusive mode is update mode plus Lock on rw, taken by upgrading after
// the commit. Package sync guarantees the two policy choices the matrix
// leaves open. A pending Lock on a sync.RWMutex admits no new reader, so a
// stream of enquiries cannot starve an upgrade. A sync.Mutex hands itself
// FIFO to a waiter blocked for over 1 ms, so back-to-back committers
// cannot starve a checkpoint.

// tryLocker is a lock that can be tried before blocking on it.
type tryLocker interface {
	TryLock() bool
	Lock()
}

// readLock is an RWMutex's shared side as a tryLocker.
type readLock sync.RWMutex

func (l *readLock) TryLock() bool { return (*sync.RWMutex)(l).TryRLock() }
func (l *readLock) Lock()         { (*sync.RWMutex)(l).RLock() }

// lockMode accounts the contended acquisitions of one mode in
// core_lock_<mode>_wait_ns and core_lock_<mode>_contended, and emits a
// lock.wait event for each; nil series and a nil tracer record nothing.
type lockMode struct {
	name      string
	wait      *obs.Histogram
	contended *obs.Counter
	tracer    obs.Tracer
}

// newLockMode registers mode name's series in reg; a nil reg records none.
func newLockMode(reg *obs.Registry, tr obs.Tracer, name string) lockMode {
	return lockMode{name: name, tracer: tr,
		wait:      reg.Histogram("core_lock_" + name + "_wait_ns"),
		contended: reg.Counter("core_lock_" + name + "_contended")}
}

// acquire takes l and reports how long the caller blocked: zero when the
// first try takes it, so the uncontended path reads no clock.
func (m *lockMode) acquire(l tryLocker) time.Duration {
	if l.TryLock() {
		return 0
	}
	start := time.Now()
	l.Lock()
	d := time.Since(start)
	m.contended.Inc()
	m.wait.ObserveDuration(d)
	obs.Emit(m.tracer, obs.Event{Name: "lock.wait", Dur: d, Attrs: []obs.Attr{obs.A("mode", m.name)}})
	return d
}

// lockShared enters shared mode; s.rw.RUnlock leaves it.
func (s *Store) lockShared() { s.waits.shared.acquire((*readLock)(&s.rw)) }

// lockUpdate enters update mode and reports the wait; s.upd.Unlock leaves
// it.
func (s *Store) lockUpdate() time.Duration { return s.waits.update.acquire(&s.upd) }

// upgrade converts the caller's update mode to exclusive once every reader
// has left, and reports the wait.
func (s *Store) upgrade() time.Duration { return s.waits.upgrade.acquire(&s.rw) }

// release leaves update mode, and exclusive mode with it when upgraded.
func (s *Store) release(upgraded bool) {
	if upgraded {
		s.rw.Unlock()
	}
	s.upd.Unlock()
}
