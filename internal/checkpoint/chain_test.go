package checkpoint

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"smalldb/internal/vfs"
)

// deltaSwitch runs one full chained switch to cur.Version+1 via the split
// API, writing content as the delta body.
func deltaSwitch(t *testing.T, fs vfs.FS, cur State, content string, opts Options) State {
	t.Helper()
	next, err := PrepareDelta(fs, cur, writeBytes([]byte(content)), opts)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := CreateLogFile(fs, next)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CommitNewVersion(fs, next); err != nil {
		t.Fatal(err)
	}
	if err := InstallVersion(fs); err != nil {
		t.Fatal(err)
	}
	st, err := Finish(fs, next, opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestDeltaSwitchChain(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "base")
	st = deltaSwitch(t, fs, st, "d2", Options{})
	st = deltaSwitch(t, fs, st, "d3", Options{})

	if st.Version != 3 || st.Base != 1 {
		t.Fatalf("state %+v", st)
	}
	if !reflect.DeepEqual(st.Chain(), []uint64{1, 2, 3}) {
		t.Errorf("chain %v", st.Chain())
	}
	// With retain 0 the old logs are gone, but every chain file survives:
	// the base and intermediate deltas are still referenced by version 3.
	names, _ := fs.List()
	want := []string{"checkpoint1", "checkpoint2.d", "checkpoint3.d", "logfile3", "version"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("directory: %v", names)
	}

	got, err := Recover(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 3 || got.Base != 1 || len(got.Retained) != 0 {
		t.Errorf("recovered %+v", got)
	}
	chain, err := ChainOf(fs, 3)
	if err != nil || !reflect.DeepEqual(chain, []uint64{1, 2, 3}) {
		t.Errorf("ChainOf: %v, %v", chain, err)
	}
}

// TestRetentionKeepsReferencedBase is the regression for the retention
// bug: a base that has left the "one previous version" window must survive
// as long as a surviving delta references it.
func TestRetentionKeepsReferencedBase(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "base")
	opts := Options{Retain: 1}
	for i := 0; i < 5; i++ {
		st = deltaSwitch(t, fs, st, "d", opts)
	}
	if st.Version != 6 || st.Base != 1 {
		t.Fatalf("state %+v", st)
	}
	// Version 1 is far outside the retention window, yet its full image
	// is the base of every surviving chain.
	if !vfs.Exists(fs, CheckpointName(1)) {
		t.Error("chain base deleted by retention")
	}
	for v := uint64(2); v <= 6; v++ {
		if !vfs.Exists(fs, DeltaName(v)) {
			t.Errorf("delta %d missing", v)
		}
	}
	if !reflect.DeepEqual(st.Retained, []uint64{5}) {
		t.Errorf("retained %v", st.Retained)
	}
	// Only the retained and current logs survive.
	if vfs.Exists(fs, LogName(4)) || !vfs.Exists(fs, LogName(5)) || !vfs.Exists(fs, LogName(6)) {
		t.Error("log retention wrong")
	}
}

// TestFullSwitchCollapsesChain: a full switch on top of a delta chain (the
// compactor's move) lets retention drop the old chain once it leaves the
// window.
func TestFullSwitchCollapsesChain(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "base")
	st = deltaSwitch(t, fs, st, "d2", Options{Retain: 1})
	st = deltaSwitch(t, fs, st, "d3", Options{Retain: 1})

	// Compaction: switch to a fresh full image at version 4. Version 3 is
	// retained, so its whole chain (1, 2.d, 3.d) must survive this switch.
	st, err := SwitchWith(fs, st, writeBytes([]byte("full4")), Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 4 || st.Base != 4 || !reflect.DeepEqual(st.Retained, []uint64{3}) {
		t.Fatalf("state %+v", st)
	}
	for _, n := range []string{CheckpointName(1), DeltaName(2), DeltaName(3), CheckpointName(4)} {
		if !vfs.Exists(fs, n) {
			t.Errorf("%s missing while version 3 is retained", n)
		}
	}

	// One more switch and the old chain leaves the window entirely.
	st, err = SwitchWith(fs, st, writeBytes([]byte("full5")), Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{CheckpointName(1), DeltaName(2), DeltaName(3)} {
		if vfs.Exists(fs, n) {
			t.Errorf("%s survived past its chain's retention", n)
		}
	}
	if !vfs.Exists(fs, CheckpointName(4)) {
		t.Error("retained full image deleted")
	}
}

// TestDeltaCrashBeforeCommit: a delta file without a durable newversion is
// debris; recovery restores the old version and clears it.
func TestDeltaCrashBeforeCommit(t *testing.T) {
	fs := vfs.NewMem(1)
	mustInit(t, fs, "base")
	writeCheckpointFile(fs, DeltaName(2), writeBytes([]byte("d2")))
	vfs.WriteFile(fs, LogName(2), nil)
	fs.Crash()

	st, err := Recover(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 || st.Base != 1 {
		t.Fatalf("state %+v", st)
	}
	if vfs.Exists(fs, DeltaName(2)) {
		t.Error("uncommitted delta survived recovery")
	}
}

// TestDeltaCrashAfterCommit: once newversion is durable, recovery finishes
// the delta switch and reports the chain.
func TestDeltaCrashAfterCommit(t *testing.T) {
	fs := vfs.NewMem(1)
	mustInit(t, fs, "base")
	writeCheckpointFile(fs, DeltaName(2), writeBytes([]byte("d2")))
	vfs.WriteFile(fs, LogName(2), nil)
	vfs.WriteFile(fs, "newversion", []byte("2\n"))
	fs.Crash()

	st, err := Recover(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 || st.Base != 1 {
		t.Fatalf("state %+v", st)
	}
	if !vfs.Exists(fs, CheckpointName(1)) {
		t.Error("base of the committed chain deleted")
	}
}

// TestRecoverBrokenChain: a chain whose base is missing is damage and must
// be reported clearly, not silently reinitialized or panicked over.
func TestRecoverBrokenChain(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "base")
	st = deltaSwitch(t, fs, st, "d2", Options{})
	_ = st
	if err := fs.Remove(CheckpointName(1)); err != nil {
		t.Fatal(err)
	}
	_, err := Recover(fs, 0)
	if err == nil || errors.Is(err, ErrNotInitialized) {
		t.Fatalf("got %v", err)
	}
	if !strings.Contains(err.Error(), "unreadable") && !strings.Contains(err.Error(), "chain") {
		t.Errorf("error does not name the chain: %v", err)
	}
	if _, cerr := ChainOf(fs, 2); cerr == nil {
		t.Error("ChainOf did not report the break")
	}
}

// TestChainCrashMidCleanup: a crash in the middle of retention cleanup —
// some stale files already deleted, others not — must recover to the same
// final state, with the chain's base intact. Regression test for the
// chain-aware retention rule.
func TestChainCrashMidCleanup(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "base")
	st = deltaSwitch(t, fs, st, "d2", Options{Retain: 1})
	st = deltaSwitch(t, fs, st, "d3", Options{Retain: 1})
	_ = st

	// Simulate a crash midway through the cleanup of a fourth delta
	// switch: newversion already installed as version, one old log
	// already deleted, the rest of the cleanup never ran, stale debris of
	// an aborted full switch to 5 also on disk.
	writeCheckpointFile(fs, DeltaName(4), writeBytes([]byte("d4")))
	vfs.WriteFile(fs, LogName(4), nil)
	vfs.WriteFile(fs, versionFile, []byte("4\n"))
	writeCheckpointFile(fs, CheckpointName(5), writeBytes([]byte("stale")))
	if err := fs.Remove(LogName(2)); err != nil {
		t.Fatal(err)
	}
	fs.Crash()

	got, err := Recover(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 4 || got.Base != 1 || !reflect.DeepEqual(got.Retained, []uint64{3}) {
		t.Fatalf("recovered %+v", got)
	}
	for _, n := range []string{CheckpointName(1), DeltaName(2), DeltaName(3), DeltaName(4), LogName(3), LogName(4)} {
		if !vfs.Exists(fs, n) {
			t.Errorf("%s missing after mid-cleanup recovery", n)
		}
	}
	for _, n := range []string{CheckpointName(5), LogName(2)} {
		if vfs.Exists(fs, n) {
			t.Errorf("%s survived mid-cleanup recovery", n)
		}
	}
	// Recovery is idempotent: a second crashless recover changes nothing.
	again, err := Recover(fs, 1)
	if err != nil || !reflect.DeepEqual(again, got) {
		t.Errorf("second recover: %+v, %v", again, err)
	}
}

// TestPrepareClearsOppositeKindDebris: an aborted full switch must not
// leave a stale full image that a later committed delta switch would
// resolve as its chain base (and vice versa).
func TestPrepareClearsOppositeKindDebris(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "base")

	// Debris: a failed full switch to 2 that Abort never cleaned.
	writeCheckpointFile(fs, CheckpointName(2), writeBytes([]byte("stale-full")))
	st = deltaSwitch(t, fs, st, "d2", Options{})
	if st.Version != 2 || st.Base != 1 {
		t.Fatalf("state %+v (stale full image became the base?)", st)
	}
	if vfs.Exists(fs, CheckpointName(2)) {
		t.Error("stale full image survived PrepareDelta")
	}

	// And the other direction: stale delta debris before a full switch.
	writeCheckpointFile(fs, DeltaName(3), writeBytes([]byte("stale-delta")))
	st, err := SwitchWith(fs, st, writeBytes([]byte("full3")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 3 || st.Base != 3 {
		t.Fatalf("state %+v", st)
	}
	if vfs.Exists(fs, DeltaName(3)) {
		t.Error("stale delta survived Prepare")
	}
}

// TestDeltaAbort: Abort clears a prepared delta along with the log files.
func TestDeltaAbort(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "base")
	next, err := PrepareDelta(fs, st, writeBytes([]byte("d2")), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := CreateLogFile(fs, next)
	if err != nil {
		t.Fatal(err)
	}
	lf.Close()
	Abort(fs, next)
	if vfs.Exists(fs, DeltaName(next)) || vfs.Exists(fs, LogName(next)) {
		t.Error("abort left delta debris")
	}
	if got, err := Recover(fs, 0); err != nil || got.Version != 1 {
		t.Errorf("recover after abort: %+v %v", got, err)
	}
}
