// Package sulock implements the paper's three-mode lock with exactly its
// compatibility matrix (§3):
//
//	           shared     update     exclusive
//	shared    compatible compatible  conflict
//	update    compatible  conflict   conflict
//	exclusive  conflict   conflict   conflict
//
// "An enquiry operation is performed with a shared lock. An update
// operation first acquires an update lock (thereby excluding other update
// operations but permitting enquiry operations). After the update operation
// has verified its pre-conditions it assembles its log record and commits
// it to disk. Finally the update operation converts its lock to an
// exclusive lock (thus excluding enquiry operations) and modifies the
// virtual memory structures. An update lock is held while writing a
// checkpoint. Note that these rules never exclude enquiry operations during
// disk transfers, only during virtual memory operations."
//
// The one policy choice the matrix leaves open is what happens to new
// shared requests while an upgrade to exclusive is waiting for readers to
// drain: this implementation blocks them, so the upgrade cannot be starved
// by a stream of enquiries. The exclusive section is as short as an
// in-memory mutation, so the enquiry delay is bounded and tiny.
package sulock

import (
	"sync"
	"time"

	"smalldb/internal/obs"
)

// Lock is a shared/update/exclusive lock. The zero value is ready to use.
type Lock struct {
	mu   sync.Mutex
	cond *sync.Cond

	readers   int  // holders of shared
	updater   bool // the (single) holder of update or exclusive
	exclusive bool // updater has upgraded
	upgrading bool // updater is waiting for readers to drain
	urgent    int  // UpdateUrgent waiters; plain Update defers to them

	ins *instrumentation // nil when uninstrumented
}

// instrumentation holds the optional contention metrics. The uncontended
// fast path pays only a nil check; wait time is measured only when a
// request actually blocks.
type instrumentation struct {
	sharedWait, updateWait, upgradeWait           *obs.Histogram
	sharedContended, updateContended, upContended *obs.Counter
	tracer                                        obs.Tracer
}

// Instrument wires the lock's contention metrics into reg under
// prefix+"_lock_*" names (wait-time histograms and contended-acquisition
// counters) and, if tr is non-nil, emits a "lock.wait" event for every
// acquisition that had to block. Call before the lock is in use.
//
// With shared false the shared-mode series (*_lock_shared_wait_ns,
// *_lock_shared_contended) are left out of the registry: a store whose
// enquiries bypass the lock never acquires shared mode, and permanently
// zero series would suggest reads still contend here. Shared acquisitions
// on such a lock are still correct; they just go unrecorded.
func (l *Lock) Instrument(reg *obs.Registry, prefix string, tr obs.Tracer, shared bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	ins := &instrumentation{
		updateWait:      reg.Histogram(prefix + "_lock_update_wait_ns"),
		upgradeWait:     reg.Histogram(prefix + "_lock_upgrade_wait_ns"),
		updateContended: reg.Counter(prefix + "_lock_update_contended"),
		upContended:     reg.Counter(prefix + "_lock_upgrade_contended"),
		tracer:          tr,
	}
	if shared {
		// The histogram/counter handles stay nil otherwise; the obs types
		// are nil-safe, so record() needs no branch.
		ins.sharedWait = reg.Histogram(prefix + "_lock_shared_wait_ns")
		ins.sharedContended = reg.Counter(prefix + "_lock_shared_contended")
	}
	l.ins = ins
}

// record notes one contended acquisition of dur in mode. Called without
// l.mu held.
func (ins *instrumentation) record(mode string, h *obs.Histogram, c *obs.Counter, dur time.Duration) {
	c.Inc()
	h.ObserveDuration(dur)
	obs.Emit(ins.tracer, obs.Event{Name: "lock.wait", Dur: dur, Attrs: []obs.Attr{obs.A("mode", mode)}})
}

func (l *Lock) init() {
	if l.cond == nil {
		l.cond = sync.NewCond(&l.mu)
	}
}

// Shared acquires the lock in shared mode; enquiries run under it. It
// blocks while an exclusive holder exists or an upgrade is pending.
func (l *Lock) Shared() {
	l.mu.Lock()
	l.init()
	if l.exclusive || l.upgrading {
		ins := l.ins
		start := time.Now()
		for l.exclusive || l.upgrading {
			l.cond.Wait()
		}
		if ins != nil {
			l.readers++
			l.mu.Unlock()
			ins.record("shared", ins.sharedWait, ins.sharedContended, time.Since(start))
			return
		}
	}
	l.readers++
	l.mu.Unlock()
}

// SharedUnlock releases one shared hold.
func (l *Lock) SharedUnlock() {
	l.mu.Lock()
	l.init()
	if l.readers <= 0 {
		l.mu.Unlock()
		panic("sulock: SharedUnlock without Shared")
	}
	l.readers--
	if l.readers == 0 {
		l.cond.Broadcast()
	}
	l.mu.Unlock()
}

// Update acquires the lock in update mode: it excludes other updaters but
// admits shared holders. Updates run under it. It reports how long the
// caller blocked — zero for an uncontended acquisition, measured only when
// a wait actually happened — so a traced update records its lock-wait span
// without a second clock read on the fast path.
func (l *Lock) Update() time.Duration {
	l.mu.Lock()
	l.init()
	if l.updater || l.urgent > 0 {
		ins := l.ins
		start := time.Now()
		for l.updater || l.urgent > 0 {
			l.cond.Wait()
		}
		l.updater = true
		l.mu.Unlock()
		dur := time.Since(start)
		if ins != nil {
			ins.record("update", ins.updateWait, ins.updateContended, dur)
		}
		return dur
	}
	l.updater = true
	l.mu.Unlock()
	return 0
}

// UpdateUrgent acquires update mode ahead of plain Update callers: while an
// urgent waiter exists, Update calls queue instead of barging onto a freshly
// released lock. Checkpoints acquire this way — a busy store commits updates
// back-to-back, holding update mode for nearly all of wall time, and a
// checkpoint that queued like any other updater could wait unboundedly for
// the one scheduling race it needs to win. Urgent waiters still wait for the
// current holder; they only skip the line, never preempt.
func (l *Lock) UpdateUrgent() {
	l.mu.Lock()
	l.init()
	if l.updater {
		ins := l.ins
		start := time.Now()
		l.urgent++
		for l.updater {
			l.cond.Wait()
		}
		l.urgent--
		l.updater = true
		l.mu.Unlock()
		if ins != nil {
			ins.record("update", ins.updateWait, ins.updateContended, time.Since(start))
		}
		return
	}
	l.updater = true
	l.mu.Unlock()
}

// UpdateUnlock releases update mode without having upgraded (a checkpoint,
// or an update whose preconditions failed).
func (l *Lock) UpdateUnlock() {
	l.mu.Lock()
	l.init()
	if !l.updater || l.exclusive {
		l.mu.Unlock()
		panic("sulock: UpdateUnlock without plain Update")
	}
	l.updater = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Upgrade converts the caller's update hold to exclusive, blocking until
// all shared holders release. This is the paper's lock conversion performed
// after the log entry is committed and before the virtual memory structures
// are modified. It reports how long the caller blocked waiting for readers
// to drain (zero when none were present).
func (l *Lock) Upgrade() time.Duration {
	l.mu.Lock()
	l.init()
	if !l.updater || l.exclusive {
		l.mu.Unlock()
		panic("sulock: Upgrade without Update")
	}
	l.upgrading = true
	if l.readers > 0 {
		ins := l.ins
		start := time.Now()
		for l.readers > 0 {
			l.cond.Wait()
		}
		l.upgrading = false
		l.exclusive = true
		l.mu.Unlock()
		dur := time.Since(start)
		if ins != nil {
			ins.record("upgrade", ins.upgradeWait, ins.upContended, dur)
		}
		return dur
	}
	l.upgrading = false
	l.exclusive = true
	l.mu.Unlock()
	return 0
}

// ExclusiveUnlock releases an exclusive hold acquired by Upgrade, freeing
// both update and exclusive modes.
func (l *Lock) ExclusiveUnlock() {
	l.mu.Lock()
	l.init()
	if !l.exclusive {
		l.mu.Unlock()
		panic("sulock: ExclusiveUnlock without exclusive")
	}
	l.exclusive = false
	l.updater = false
	l.cond.Broadcast()
	l.mu.Unlock()
}

// Holders reports the current holder counts (shared, update, exclusive);
// used by tests and instrumentation.
func (l *Lock) Holders() (shared int, update, exclusive bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.readers, l.updater, l.exclusive
}
