// Package faultfs wraps a vfs.Mem with deterministic fault injection for
// crash-consistency torture testing.
//
// Every mutating call — Create, Rename, Remove, Write, WriteAt, Truncate,
// Sync — is assigned a monotonically increasing op index.
// A torture harness first runs a workload once to count its ops, then
// replays it with CrashAt(n) for every n: when the workload's n-th mutating
// op is about to execute, the file system "loses power" — the op does not
// happen, the durable (synced-only) image of the disk is frozen via
// vfs.Mem.CloneSynced, and every subsequent operation fails with
// ErrCrashed, so the workload dies the way a process does when the machine
// goes down. Recovery then runs against the frozen image exactly as a
// restart would against the real disk.
//
// Beyond the crash point, individual ops can be failed deterministically:
// FailSyncAt(k, err) makes the k-th Sync from now return err (the store
// must treat it as a failed commit), and FailName(substr, err) makes every
// mutating op touching a matching file name fail — a sticky EIO on one
// file, the paper's hard-error model.
//
// The op trace (bounded by Options.TraceCap) records the tail of the op
// stream for debugging: when a crash point produces an invariant violation,
// the trace shows exactly which file operations preceded the simulated
// power cut. Counters (faultfs_ops, faultfs_syncs, faultfs_crashes,
// faultfs_injected_errors) feed internal/obs when a registry is configured.
package faultfs

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
)

// ErrCrashed is returned by every operation after the crash point fired:
// the simulated machine is off.
var ErrCrashed = errors.New("faultfs: simulated power failure")

// Op classifies a mutating file-system call.
type Op uint8

// The mutating op kinds, in no particular order.
const (
	OpCreate Op = iota
	OpRename
	OpRemove
	OpWrite
	OpTruncate
	OpSync
)

var opNames = [...]string{"create", "rename", "remove", "write", "truncate", "sync"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Record is one traced op.
type Record struct {
	Index int64
	Op    Op
	Name  string
	// Injected is non-empty when the op failed by injection rather than
	// executing.
	Injected string
}

func (r Record) String() string {
	s := fmt.Sprintf("#%d %s %s", r.Index, r.Op, r.Name)
	if r.Injected != "" {
		s += " [injected: " + r.Injected + "]"
	}
	return s
}

// Options configures a FS.
type Options struct {
	// CrashAt is the op index at which power fails. 0 crashes before the
	// very first op; a negative value (use Never) disarms the crash.
	CrashAt int64
	// TraceCap bounds the op trace (a ring of the most recent ops);
	// 0 means keep no trace.
	TraceCap int
	// Obs, when non-nil, receives the faultfs_* counters.
	Obs *obs.Registry
}

// FS wraps a Mem, indexing and optionally failing its mutating operations.
type FS struct {
	mem *vfs.Mem

	mu       sync.Mutex
	next     int64 // index the next mutating op will get
	crashAt  int64
	crashed  bool
	frozen   *vfs.Mem // durable image captured when the crash fired
	syncSeen int64    // syncs observed since the last FailSyncAt arm
	failSync struct {
		k   int64 // fail the k-th sync from arm time; 0 = disarmed
		err error
	}
	nameRules []nameRule
	trace     []Record
	traceCap  int
	traceOff  int // ring start when len(trace) == traceCap

	ops      *obs.Counter
	syncs    *obs.Counter
	crashes  *obs.Counter
	injected *obs.Counter
}

type nameRule struct {
	substr string
	err    error
}

// Never is the CrashAt value that disarms the crash point, leaving a
// transparent op counter.
const Never int64 = -1

// New wraps mem.
func New(mem *vfs.Mem, opts Options) *FS {
	f := &FS{mem: mem, crashAt: opts.CrashAt, traceCap: opts.TraceCap}
	if opts.CrashAt < 0 {
		f.crashAt = -1
	}
	reg := opts.Obs
	f.ops = reg.Counter("faultfs_ops")
	f.syncs = reg.Counter("faultfs_syncs")
	f.crashes = reg.Counter("faultfs_crashes")
	f.injected = reg.Counter("faultfs_injected_errors")
	if opts.CrashAt == 0 {
		// Crash before the very first op: freeze immediately.
		f.mu.Lock()
		f.fireCrashLocked()
		f.mu.Unlock()
	}
	return f
}

// FailSyncAt makes the k-th Sync from now (1-based) fail with err, once.
func (f *FS) FailSyncAt(k int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncSeen = 0
	f.failSync.k = k
	f.failSync.err = err
}

// FailName makes every mutating op on a name containing substr fail with
// err, until ClearFaults.
func (f *FS) FailName(substr string, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.nameRules = append(f.nameRules, nameRule{substr: substr, err: err})
}

// ClearFaults disarms sync- and name-based injection (not the crash point).
func (f *FS) ClearFaults() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failSync.k = 0
	f.nameRules = nil
}

// OpCount reports how many mutating ops have been indexed so far; after a
// full workload run it is the N of the crash-point range [0, N].
func (f *FS) OpCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.next
}

// Crashed reports whether the crash point has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Snapshot returns the durable image of the disk: the state a restart
// would find. After a crash it is the image frozen at the crash point;
// before one, it is the current synced view.
func (f *FS) Snapshot() *vfs.Mem {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return f.frozen
	}
	return f.mem.CloneSynced()
}

// Trace returns the recorded op tail, oldest first.
func (f *FS) Trace() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Record, 0, len(f.trace))
	out = append(out, f.trace[f.traceOff:]...)
	out = append(out, f.trace[:f.traceOff]...)
	return out
}

func (f *FS) fireCrashLocked() {
	f.crashed = true
	f.frozen = f.mem.CloneSynced()
	f.crashes.Inc()
}

func (f *FS) record(r Record) {
	if f.traceCap <= 0 {
		return
	}
	if len(f.trace) < f.traceCap {
		f.trace = append(f.trace, r)
		return
	}
	f.trace[f.traceOff] = r
	f.traceOff = (f.traceOff + 1) % f.traceCap
}

// step indexes one mutating op and decides its fate: ErrCrashed once power
// is out (firing the crash if this op is the armed one), or an injected
// error, or nil meaning the op proceeds.
func (f *FS) step(op Op, name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("%w (op %s %s)", ErrCrashed, op, name)
	}
	idx := f.next
	f.next++
	f.ops.Inc()
	rec := Record{Index: idx, Op: op, Name: name}
	if f.crashAt >= 0 && idx >= f.crashAt {
		rec.Injected = "crash"
		f.record(rec)
		f.fireCrashLocked()
		return fmt.Errorf("%w (at op %d: %s %s)", ErrCrashed, idx, op, name)
	}
	if op == OpSync {
		f.syncs.Inc()
		f.syncSeen++
		if f.failSync.k > 0 && f.syncSeen == f.failSync.k {
			f.failSync.k = 0
			f.injected.Inc()
			rec.Injected = f.failSync.err.Error()
			f.record(rec)
			return f.failSync.err
		}
	}
	for _, rule := range f.nameRules {
		if rule.substr != "" && strings.Contains(name, rule.substr) {
			f.injected.Inc()
			rec.Injected = rule.err.Error()
			f.record(rec)
			return rule.err
		}
	}
	f.record(rec)
	return nil
}

// alive is the gate for non-mutating calls: they are not indexed, but a
// dead machine serves nothing.
func (f *FS) alive() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	return nil
}

// --- vfs.FS ---

// Create implements vfs.FS.
func (f *FS) Create(name string) (vfs.File, error) {
	if err := f.step(OpCreate, name); err != nil {
		return nil, err
	}
	inner, err := f.mem.Create(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

// Open implements vfs.FS.
func (f *FS) Open(name string) (vfs.File, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	inner, err := f.mem.Open(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

// OpenRW implements vfs.FS.
func (f *FS) OpenRW(name string) (vfs.File, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	inner, err := f.mem.OpenRW(name)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, inner: inner}, nil
}

// Rename implements vfs.FS.
func (f *FS) Rename(oldname, newname string) error {
	if err := f.step(OpRename, oldname+" -> "+newname); err != nil {
		return err
	}
	return f.mem.Rename(oldname, newname)
}

// Remove implements vfs.FS.
func (f *FS) Remove(name string) error {
	if err := f.step(OpRemove, name); err != nil {
		return err
	}
	return f.mem.Remove(name)
}

// List implements vfs.FS.
func (f *FS) List() ([]string, error) {
	if err := f.alive(); err != nil {
		return nil, err
	}
	return f.mem.List()
}

// Stat implements vfs.FS.
func (f *FS) Stat(name string) (int64, error) {
	if err := f.alive(); err != nil {
		return 0, err
	}
	return f.mem.Stat(name)
}

// file wraps an open handle, indexing its mutating calls.
type file struct {
	fs    *FS
	inner vfs.File
}

func (h *file) Name() string { return h.inner.Name() }

func (h *file) Read(p []byte) (int, error) {
	if err := h.fs.alive(); err != nil {
		return 0, err
	}
	return h.inner.Read(p)
}

func (h *file) ReadAt(p []byte, off int64) (int, error) {
	if err := h.fs.alive(); err != nil {
		return 0, err
	}
	return h.inner.ReadAt(p, off)
}

func (h *file) Write(p []byte) (int, error) {
	if err := h.fs.step(OpWrite, h.inner.Name()); err != nil {
		return 0, err
	}
	return h.inner.Write(p)
}

func (h *file) WriteAt(p []byte, off int64) (int, error) {
	if err := h.fs.step(OpWrite, h.inner.Name()); err != nil {
		return 0, err
	}
	return h.inner.WriteAt(p, off)
}

func (h *file) Seek(offset int64, whence int) (int64, error) {
	if err := h.fs.alive(); err != nil {
		return 0, err
	}
	return h.inner.Seek(offset, whence)
}

func (h *file) Truncate(size int64) error {
	if err := h.fs.step(OpTruncate, h.inner.Name()); err != nil {
		return err
	}
	return h.inner.Truncate(size)
}

func (h *file) Sync() error {
	if err := h.fs.step(OpSync, h.inner.Name()); err != nil {
		return err
	}
	return h.inner.Sync()
}

func (h *file) Size() (int64, error) {
	if err := h.fs.alive(); err != nil {
		return 0, err
	}
	return h.inner.Size()
}

// Close never fails: closing handles is the one thing a dying process's
// kernel still does.
func (h *file) Close() error {
	if h.fs.alive() != nil {
		return nil
	}
	return h.inner.Close()
}
