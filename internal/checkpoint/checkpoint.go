// Package checkpoint implements the paper's on-disk checkpoint protocol,
// byte for byte the §3 recipe:
//
//	"In the normal quiescent state the directory contains a version-
//	numbered checkpoint, with a file title such as checkpoint35, a
//	matching log file named logfile35, and a file named version
//	containing the characters '35'. We switch to a new checkpoint by
//	writing it to the file checkpoint36, creating an empty file
//	logfile36, then writing the characters '36' to a new file called
//	newversion. This is the commit point (after an appropriate number of
//	Unix fsync calls). Finally, we delete checkpoint35, logfile35 and
//	version, then rename newversion to be version."
//
// Recovery follows the paper's restart rule: read the version number from
// newversion if it exists and holds a valid version (valid further requires
// that its checkpoint and log files exist and were fsynced before newversion
// was written — which Switch guarantees), otherwise from version; then
// delete any redundant files and finish the interrupted switch.
//
// For hard-error recovery (§4), Switch can retain the previous checkpoint
// and log instead of deleting them: "Recovery from a hard error in the
// checkpoint could be achieved by keeping one previous checkpoint and log."
//
// # Delta chains
//
// The protocol is extended beyond the paper with chained incremental
// checkpoints: a switch may write checkpoint<v>.d — a delta against
// version v-1's state — instead of a full image checkpoint<v>. The commit
// point and the version files are unchanged; only the shape of the
// checkpoint data differs. Recovery then reads a *chain*: the newest full
// image at or below the current version (the chain's base) followed by
// every delta above it, in version order. Retention is generalized
// accordingly — a checkpoint file is kept as long as the chain of the
// current version or of any retained version still references it, so a
// base can outlive its own retention window while deltas stand on it.
package checkpoint

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

const (
	checkpointPrefix = "checkpoint"
	logPrefix        = "logfile"
	archivePrefix    = "archive-logfile"
	versionFile      = "version"
	newVersionFile   = "newversion"
)

// ErrNotInitialized is returned by Recover when the directory holds no
// database at all.
var ErrNotInitialized = errors.New("checkpoint: no database in directory")

// CheckpointName returns the full-image checkpoint file name for a version.
func CheckpointName(v uint64) string { return checkpointPrefix + strconv.FormatUint(v, 10) }

// DeltaName returns the delta checkpoint file name for a version: the
// incremental checkpoint whose contents transform version v-1's state into
// version v's. A version has either a full image or a delta, never both.
func DeltaName(v uint64) string { return CheckpointName(v) + deltaSuffix }

const deltaSuffix = ".d"

// parseCheckpointName recognizes checkpoint<v> and checkpoint<v>.d.
func parseCheckpointName(name string) (v uint64, delta bool, ok bool) {
	if rest, found := strings.CutSuffix(name, deltaSuffix); found {
		v, ok = parseNumbered(rest, checkpointPrefix)
		return v, true, ok
	}
	v, ok = parseNumbered(name, checkpointPrefix)
	return v, false, ok
}

// LogName returns the log file name for a version: a version's log is this
// one file.
func LogName(v uint64) string { return logPrefix + strconv.FormatUint(v, 10) }

// ArchiveLogName returns the name a version's log is archived under when
// the audit trail is kept (§4: "the log files form a complete audit trail
// for the database, and could be retained if desired").
func ArchiveLogName(v uint64) string { return archivePrefix + strconv.FormatUint(v, 10) }

// ErrStreamLog is returned by recovery for a directory holding a log split
// into stream files (logfile<v>.<i> or archive-logfile<v>.<i>): a version's
// log is one file, and recovery does not guess at another layout. The error
// names the file; the directory is left as it was.
var ErrStreamLog = errors.New("checkpoint: log stream file (a version's log is one file)")

// isStreamLog reports whether name is prefix<v>.<i>: a stream of a log.
func isStreamLog(name string) bool {
	base, i, ok := strings.Cut(name, ".")
	if _, err := strconv.ParseUint(i, 10, 64); !ok || err != nil {
		return false
	}
	_, isLog := parseNumbered(base, logPrefix)
	_, isArchive := parseNumbered(base, archivePrefix)
	return isLog || isArchive
}

// ArchivedLogs lists the versions with archived logs, ascending.
func ArchivedLogs(fs vfs.FS) ([]uint64, error) {
	names, err := fs.List()
	if err != nil {
		return nil, err
	}
	var versions []uint64
	for _, n := range names {
		if v, ok := parseNumbered(n, archivePrefix); ok {
			versions = append(versions, v)
		}
	}
	sort.Slice(versions, func(i, j int) bool { return versions[i] < versions[j] })
	return versions, nil
}

// State describes the durable state of the directory after a successful
// Recover, Init or Switch.
type State struct {
	// Version is the current version number.
	Version uint64
	// Base is the full checkpoint the current version's delta chain
	// stands on: Version itself when the current checkpoint is a full
	// image, otherwise the newest version at or below Version whose
	// checkpoint file is full. Recovery reads CheckpointName(Base) and
	// applies DeltaName(w) for each w in Base+1..Version.
	Base uint64
	// Retained lists older versions whose state is still recoverable
	// (their chain and log files are kept) for hard-error recovery,
	// ascending.
	Retained []uint64
}

// CheckpointName returns the current checkpoint's file name.
func (s State) CheckpointName() string { return CheckpointName(s.Version) }

// LogName returns the current log's file name.
func (s State) LogName() string { return LogName(s.Version) }

// Chain returns the versions whose checkpoint files recovery reads to
// reconstruct the current state, ascending: the full base, then each delta.
func (s State) Chain() []uint64 {
	chain := make([]uint64, 0, s.Version-s.Base+1)
	for v := s.Base; v <= s.Version; v++ {
		chain = append(chain, v)
	}
	return chain
}

// parseVersionFile reads a version/newversion file and reports the version
// it names, if the contents are a valid number.
func parseVersionFile(fs vfs.FS, name string) (uint64, bool) {
	data, err := vfs.ReadFile(fs, name)
	if err != nil {
		return 0, false
	}
	s := strings.TrimSpace(string(data))
	if s == "" {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

// ChainOf resolves version v's checkpoint chain: the versions whose
// checkpoint files recovery reads, ascending from the full base to v
// itself. The error describes the first break in the chain.
func ChainOf(fs vfs.FS, v uint64) ([]uint64, error) {
	var chain []uint64
	for w := v; w >= 1; w-- {
		chain = append(chain, w)
		if vfs.Exists(fs, CheckpointName(w)) {
			for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
				chain[i], chain[j] = chain[j], chain[i]
			}
			return chain, nil
		}
		if !vfs.Exists(fs, DeltaName(w)) {
			return nil, fmt.Errorf("checkpoint: chain of version %d is broken at version %d: neither %s nor %s exists", v, w, CheckpointName(w), DeltaName(w))
		}
	}
	return nil, fmt.Errorf("checkpoint: chain of version %d reaches version 1 without a full base", v)
}

// versionComplete reports whether version v is recoverable: its log exists
// and its checkpoint chain resolves down to a full base.
func versionComplete(fs vfs.FS, v uint64) bool {
	if !vfs.Exists(fs, LogName(v)) {
		return false
	}
	_, err := ChainOf(fs, v)
	return err == nil
}

// Init creates version 1: the caller streams the initial checkpoint (for an
// empty database, the pickled empty root) through write, and the log file
// holds head as its head frame. Crashing anywhere during Init leaves a
// directory Recover still reports as uninitialized.
func Init(fs vfs.FS, write func(w io.Writer) error, head []byte) (State, error) {
	const v = 1
	if err := writeCheckpointFile(fs, CheckpointName(v), write); err != nil {
		return State{}, err
	}
	if err := vfs.WriteFile(fs, LogName(v), wal.HeadFrame(head)); err != nil {
		return State{}, err
	}
	// The version file's durable appearance is the commit point of Init.
	if err := vfs.WriteFile(fs, versionFile, []byte("1\n")); err != nil {
		return State{}, err
	}
	return State{Version: v, Base: v}, nil
}

func writeCheckpointFile(fs vfs.FS, name string, write func(w io.Writer) error) error {
	f, err := fs.Create(name)
	if err != nil {
		return err
	}
	// The pickler streams many small writes; buffer them so a checkpoint
	// costs a few large file writes rather than one syscall per field.
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := write(bw); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", name, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("checkpoint: writing %s: %w", name, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Options configures recovery and switching beyond the base protocol.
type Options struct {
	// Retain is the number of previous checkpoint+log pairs to keep (the
	// paper suggests 1 for hard-error recovery; 0 reproduces the base
	// protocol exactly).
	Retain int
	// ArchiveLogs renames a log to archive-logfileN instead of deleting
	// it when its version leaves the retention window — the §4 audit
	// trail. Archived logs are never read by recovery; logdump and
	// Store.History read them.
	ArchiveLogs bool
	// Obs, when non-nil, receives the protocol's metrics:
	// checkpoint_switches, checkpoint_switch_ns and checkpoint_bytes.
	Obs *obs.Registry
}

// Recover inspects the directory, determines the current version, finishes
// any interrupted switch, deletes redundant files beyond the retention
// count, and returns the resulting state. retain is as in Options.Retain.
func Recover(fs vfs.FS, retain int) (State, error) {
	return RecoverWith(fs, Options{Retain: retain})
}

// RecoverWith is Recover with full Options.
func RecoverWith(fs vfs.FS, opts Options) (State, error) {
	names, err := fs.List()
	if err != nil {
		return State{}, err
	}
	for _, n := range names {
		if isStreamLog(n) {
			return State{}, fmt.Errorf("%w: %q", ErrStreamLog, n)
		}
	}
	cur, haveNew := parseVersionFile(fs, newVersionFile)
	if haveNew && !versionComplete(fs, cur) {
		// newversion exists but its files don't — only possible if
		// the switch crashed before its fsyncs completed, or media
		// loss. Fall back to version.
		haveNew = false
	}
	if !haveNew {
		v, ok := parseVersionFile(fs, versionFile)
		if !ok {
			// No valid version state. If checkpoints exist this is
			// damage and needs attention (restore from a replica
			// or the retained previous version by hand); if not,
			// it is a virgin directory or a crashed Init, whose
			// debris is safe to clear.
			laterCheckpoint := false
			for _, n := range names {
				if v, _, isCp := parseCheckpointName(n); isCp && v > 1 {
					laterCheckpoint = true
				}
			}
			// checkpoint1 alone is the debris of a crashed Init;
			// any later checkpoint means an established database
			// whose version file has been lost or damaged.
			if laterCheckpoint {
				return State{}, fmt.Errorf("checkpoint: checkpoints exist but version files are unreadable or invalid")
			}
			for _, n := range []string{versionFile, newVersionFile} {
				if vfs.Exists(fs, n) {
					if err := fs.Remove(n); err != nil {
						return State{}, err
					}
				}
			}
			return State{}, ErrNotInitialized
		}
		cur = v
		if !vfs.Exists(fs, LogName(cur)) {
			return State{}, fmt.Errorf("checkpoint: version file names %d but %s missing", cur, LogName(cur))
		}
		if _, cerr := ChainOf(fs, cur); cerr != nil {
			return State{}, fmt.Errorf("checkpoint: version file names %d but its checkpoint is unreadable: %w", cur, cerr)
		}
		// Any newversion file left behind at this point is debris of
		// a switch that never committed.
		if vfs.Exists(fs, newVersionFile) {
			if err := fs.Remove(newVersionFile); err != nil {
				return State{}, err
			}
		}
	} else {
		// Finish the interrupted switch: install newversion as
		// version.
		if vfs.Exists(fs, versionFile) {
			if err := fs.Remove(versionFile); err != nil {
				return State{}, err
			}
		}
		if err := fs.Rename(newVersionFile, versionFile); err != nil {
			return State{}, err
		}
	}
	return cleanup(fs, cur, opts)
}

// cleanup deletes checkpoint/log files that are newer than cur (debris of a
// crashed switch) or no longer referenced by the retention window, and
// reports the retained versions.
//
// Deletion is computed from a keep set, not version by version: a
// checkpoint file survives as long as the chain of cur or of any retained
// version still references it. This is what makes retention safe for delta
// chains — a base older than the retention window is kept while any
// surviving delta stands on it, where the old per-version rule would have
// deleted it and stranded the chain.
func cleanup(fs vfs.FS, cur uint64, opts Options) (State, error) {
	names, err := fs.List()
	if err != nil {
		return State{}, err
	}
	type cpKind struct{ full, delta bool }
	cps := map[uint64]cpKind{}
	versions := map[uint64]bool{}
	logs := map[uint64]bool{}
	for _, n := range names {
		if v, isDelta, ok := parseCheckpointName(n); ok {
			k := cps[v]
			if isDelta {
				k.delta = true
			} else {
				k.full = true
			}
			cps[v] = k
			versions[v] = true
		} else if v, ok := parseNumbered(n, logPrefix); ok {
			versions[v] = true
			logs[v] = true
		}
	}

	// chainBase walks v's delta chain down to its full base on the file
	// listing. A version with both kinds of file resolves as full: the
	// stray delta is uncommitted debris (Prepare removes the opposite
	// kind before the version can commit).
	chainBase := func(v uint64) (uint64, bool) {
		for w := v; w >= 1; w-- {
			k := cps[w]
			if k.full {
				return w, true
			}
			if !k.delta {
				return 0, false
			}
		}
		return 0, false
	}
	base, ok := chainBase(cur)
	if !ok {
		return State{}, fmt.Errorf("checkpoint: version %d's delta chain has no full base", cur)
	}

	keepFull := map[uint64]bool{}
	keepDelta := map[uint64]bool{}
	keepChain := func(v, vbase uint64) {
		keepFull[vbase] = true
		for w := vbase + 1; w <= v; w++ {
			keepDelta[w] = true
		}
	}
	keepChain(cur, base)

	// A version is retainable only if it is older than cur, inside the
	// window, and still recoverable (complete chain plus log).
	var retained []uint64
	keepLog := map[uint64]bool{cur: true}
	for v := range versions {
		if v >= cur || int(cur-v) > opts.Retain {
			continue
		}
		vbase, ok := chainBase(v)
		if !ok || !logs[v] {
			continue
		}
		retained = append(retained, v)
		keepChain(v, vbase)
		keepLog[v] = true
	}

	for v := range versions {
		k := cps[v]
		if k.full && !keepFull[v] {
			if err := fs.Remove(CheckpointName(v)); err != nil {
				return State{}, err
			}
		}
		if k.delta && !keepDelta[v] {
			if err := fs.Remove(DeltaName(v)); err != nil {
				return State{}, err
			}
		}
		if keepLog[v] || !logs[v] {
			continue
		}
		// Only logs of *completed* versions (older than cur) belong in
		// the audit trail; debris of a crashed switch (v > cur) never
		// held committed updates.
		if opts.ArchiveLogs && v < cur {
			err = fs.Rename(LogName(v), ArchiveLogName(v))
		} else {
			err = fs.Remove(LogName(v))
		}
		if err != nil {
			return State{}, err
		}
	}
	sort.Slice(retained, func(i, j int) bool { return retained[i] < retained[j] })
	return State{Version: cur, Base: base, Retained: retained}, nil
}

func parseNumbered(name, prefix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) {
		return 0, false
	}
	v, err := strconv.ParseUint(name[len(prefix):], 10, 64)
	if err != nil || v == 0 {
		return 0, false
	}
	return v, true
}

// Switch performs the paper's checkpoint switch from cur to cur.Version+1.
// write streams the new checkpoint's contents. The switch commits when the
// newversion file is durably on disk; a crash at any earlier point leaves
// the old version current, and a crash after leaves the new version
// recoverable. retain is as for Recover.
func Switch(fs vfs.FS, cur State, write func(w io.Writer) error, retain int) (State, error) {
	return SwitchWith(fs, cur, write, Options{Retain: retain})
}

// SwitchWith is Switch with full Options. It composes the split protocol
// steps below; callers that need to interleave other work between the steps
// (the store's non-blocking checkpoint) call them directly.
func SwitchWith(fs vfs.FS, cur State, write func(w io.Writer) error, opts Options) (State, error) {
	start := time.Now()
	next, err := Prepare(fs, cur, write, opts)
	if err != nil {
		return cur, err
	}
	lf, err := CreateLogFile(fs, next, nil)
	if err != nil {
		return cur, err
	}
	if err := lf.Close(); err != nil {
		return cur, err
	}
	if err := CommitNewVersion(fs, next); err != nil {
		return cur, err
	}
	if err := InstallVersion(fs); err != nil {
		return cur, err
	}
	st, err := Finish(fs, next, opts)
	if err == nil {
		ObserveSwitch(opts, start)
	}
	return st, err
}

// Prepare performs the first step of a switch from cur: write and sync the
// next version's checkpoint file, streamed through write. The version files
// are untouched — the old version remains current, and a crash (or Abort)
// leaves only debris that recovery clears. It reports the new version
// number.
func Prepare(fs vfs.FS, cur State, write func(w io.Writer) error, opts Options) (uint64, error) {
	next := cur.Version + 1
	// An aborted earlier switch to next may have left the opposite-kind
	// file behind; clear it before this switch can commit, or recovery
	// would resolve next's chain through stale debris.
	if err := removeIfExists(fs, DeltaName(next)); err != nil {
		return 0, err
	}
	var written int64
	counted := func(w io.Writer) error {
		cw := &countingWriter{w: w}
		err := write(cw)
		written = cw.n
		return err
	}
	if err := writeCheckpointFile(fs, CheckpointName(next), counted); err != nil {
		return 0, err
	}
	opts.Obs.Histogram("checkpoint_bytes").Observe(written)
	return next, nil
}

// PrepareDelta is Prepare for a chained incremental switch: it writes and
// syncs the next version's delta file checkpoint<v>.d — whose contents,
// applied to version cur.Version's recovered state, produce the next
// version's — instead of a full image. Every other step of the switch
// (CreateLogFile, CommitNewVersion, InstallVersion, Finish) is identical,
// as is the crash behavior: an uncommitted delta is debris that recovery
// clears. The caller must hold a State whose own chain is intact (any
// State returned by this package satisfies that).
func PrepareDelta(fs vfs.FS, cur State, write func(w io.Writer) error, opts Options) (uint64, error) {
	next := cur.Version + 1
	// Clear opposite-kind debris of an aborted switch, as in Prepare: a
	// stale full image at next would silently become the chain's base.
	if err := removeIfExists(fs, CheckpointName(next)); err != nil {
		return 0, err
	}
	var written int64
	counted := func(w io.Writer) error {
		cw := &countingWriter{w: w}
		err := write(cw)
		written = cw.n
		return err
	}
	if err := writeCheckpointFile(fs, DeltaName(next), counted); err != nil {
		return 0, err
	}
	opts.Obs.Histogram("checkpoint_delta_bytes").Observe(written)
	return next, nil
}

func removeIfExists(fs vfs.FS, name string) error {
	if !vfs.Exists(fs, name) {
		return nil
	}
	return fs.Remove(name)
}

// CreateLogFile creates version v's log file holding only head as its head
// frame (nothing when head is nil), syncs it, and returns the open handle:
// the non-blocking checkpoint hands it to the WAL's mirror window so the
// log's tail can be drained into it before the flip. Callers with no such
// need just Close it. On error the file is closed and removed.
func CreateLogFile(fs vfs.FS, v uint64, head []byte) (vfs.File, error) {
	f, err := fs.Create(LogName(v))
	if err != nil {
		return nil, err
	}
	if head != nil {
		_, err = f.Write(wal.HeadFrame(head))
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		_ = fs.Remove(LogName(v))
		return nil, err
	}
	return f, nil
}

// CommitNewVersion durably writes the newversion file naming v — the commit
// point of the switch. Until it returns successfully the old version is
// still what recovery restores; afterwards it is v. The caller must have
// completed Prepare and CreateLogFile (and made the new log's contents as
// current as it wants them) for version v first.
func CommitNewVersion(fs vfs.FS, v uint64) error {
	return vfs.WriteFile(fs, newVersionFile, []byte(strconv.FormatUint(v, 10)+"\n"))
}

// InstallVersion completes a committed switch: delete version, rename
// newversion over it. Recovery performs these same steps if a crash
// interrupts them.
func InstallVersion(fs vfs.FS) error {
	if vfs.Exists(fs, versionFile) {
		if err := fs.Remove(versionFile); err != nil {
			return err
		}
	}
	return fs.Rename(newVersionFile, versionFile)
}

// Finish tidies after an installed switch to v — deleting or archiving what
// fell out of retention — and reports the resulting state.
func Finish(fs vfs.FS, v uint64, opts Options) (State, error) {
	return cleanup(fs, v, opts)
}

// Abort removes the uncommitted debris of a prepared switch to v (the
// checkpoint and log files a crashed switch would also leave; recovery
// clears the same ones). It must not be called once CommitNewVersion has
// succeeded. Removal is best-effort: anything left behind is cleared by the
// next switch or recovery.
func Abort(fs vfs.FS, v uint64) {
	for _, n := range []string{CheckpointName(v), DeltaName(v), LogName(v)} {
		if vfs.Exists(fs, n) {
			_ = fs.Remove(n)
		}
	}
}

// ObserveSwitch records one completed switch, begun at start, in opts'
// metrics.
func ObserveSwitch(opts Options, start time.Time) {
	opts.Obs.Counter("checkpoint_switches").Inc()
	opts.Obs.Histogram("checkpoint_switch_ns").ObserveSince(start)
}

// countingWriter counts the bytes streamed through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}
