package checkpoint

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
	"smalldb/internal/wal"
)

func mustInit(t *testing.T, fs vfs.FS, content string) State {
	t.Helper()
	st, err := Init(fs, []byte(content), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestInitAndRecover(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "cp1")
	if st.Version != 1 {
		t.Fatalf("version %d", st.Version)
	}
	got, err := Recover(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || len(got.Retained) != 0 {
		t.Errorf("recovered %+v", got)
	}
	data, err := vfs.ReadFile(fs, got.CheckpointName())
	if err != nil || string(data) != "cp1" {
		t.Errorf("checkpoint content %q, %v", data, err)
	}
	if !vfs.Exists(fs, got.LogName()) {
		t.Error("log file missing")
	}
}

func TestRecoverVirgin(t *testing.T) {
	fs := vfs.NewMem(1)
	if _, err := Recover(fs, 1); !errors.Is(err, ErrNotInitialized) {
		t.Errorf("got %v", err)
	}
}

func TestSwitch(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "cp1")
	st2, err := Switch(fs, st, []byte("cp2"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version != 2 {
		t.Fatalf("version %d", st2.Version)
	}
	// With retain 0, version 1's files are gone — the paper's base
	// protocol.
	if vfs.Exists(fs, CheckpointName(1)) || vfs.Exists(fs, LogName(1)) {
		t.Error("old version not deleted")
	}
	names, _ := fs.List()
	want := []string{"checkpoint2", "logfile2", "version"}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("directory: %v", names)
	}
	data, _ := vfs.ReadFile(fs, "version")
	if string(data) != "2\n" {
		t.Errorf("version content %q", data)
	}
}

func TestSwitchRetainsPrevious(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "cp1")
	st2, err := Switch(fs, st, []byte("cp2"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st2.Retained, []uint64{1}) {
		t.Fatalf("retained %v", st2.Retained)
	}
	if !vfs.Exists(fs, CheckpointName(1)) || !vfs.Exists(fs, LogName(1)) {
		t.Error("previous version not retained")
	}
	// A further switch with retain 1 drops version 1 but keeps 2.
	st3, err := Switch(fs, st2, []byte("cp3"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st3.Retained, []uint64{2}) {
		t.Errorf("retained %v", st3.Retained)
	}
	if vfs.Exists(fs, CheckpointName(1)) {
		t.Error("version 1 survived retention window")
	}
}

func TestRecoverAfterCrashBeforeCommit(t *testing.T) {
	// Crash after writing checkpoint2 and logfile2 but before newversion
	// is durable: version 1 must remain current, and the debris must be
	// deleted.
	fs := vfs.NewMem(1)
	mustInit(t, fs, "cp1")
	vfs.WriteFile(fs, CheckpointName(2), []byte("cp2"))
	vfs.WriteFile(fs, LogName(2), nil)
	f, _ := fs.Create("newversion")
	f.Write([]byte("2\n")) // never synced
	f.Close()
	fs.Crash()

	st, err := Recover(fs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 1 {
		t.Fatalf("version %d", st.Version)
	}
	for _, n := range []string{"checkpoint2", "logfile2", "newversion"} {
		if vfs.Exists(fs, n) {
			t.Errorf("debris %s survived", n)
		}
	}
}

func TestRecoverAfterCrashAfterCommit(t *testing.T) {
	// Crash after newversion is durable but before the old files are
	// deleted: version 2 is current; recovery finishes the switch.
	fs := vfs.NewMem(1)
	mustInit(t, fs, "cp1")
	vfs.WriteFile(fs, CheckpointName(2), []byte("cp2"))
	vfs.WriteFile(fs, LogName(2), nil)
	vfs.WriteFile(fs, "newversion", []byte("2\n"))
	fs.Crash()

	st, err := Recover(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 {
		t.Fatalf("version %d", st.Version)
	}
	if vfs.Exists(fs, "newversion") {
		t.Error("newversion not installed as version")
	}
	data, _ := vfs.ReadFile(fs, "version")
	if string(data) != "2\n" {
		t.Errorf("version content %q", data)
	}
	if vfs.Exists(fs, CheckpointName(1)) {
		t.Error("old checkpoint not cleaned with retain 0")
	}
}

func TestRecoverMidCleanupCrash(t *testing.T) {
	// Crash after deleting version but before renaming newversion.
	fs := vfs.NewMem(1)
	mustInit(t, fs, "cp1")
	vfs.WriteFile(fs, CheckpointName(2), []byte("cp2"))
	vfs.WriteFile(fs, LogName(2), nil)
	vfs.WriteFile(fs, "newversion", []byte("2\n"))
	fs.Remove("version")
	fs.Crash()

	st, err := Recover(fs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != 2 {
		t.Fatalf("version %d", st.Version)
	}
}

func TestRecoverCrashedInit(t *testing.T) {
	// Crash during Init (before the version file is durable): the
	// directory recovers as uninitialized and a fresh Init succeeds.
	fs := vfs.NewMem(1)
	vfs.WriteFile(fs, CheckpointName(1), []byte("partial"))
	fs.Crash()
	if _, err := Recover(fs, 1); !errors.Is(err, ErrNotInitialized) {
		t.Fatalf("got %v", err)
	}
	st := mustInit(t, fs, "cp1-redo")
	if st.Version != 1 {
		t.Fatalf("version %d", st.Version)
	}
	data, _ := vfs.ReadFile(fs, st.CheckpointName())
	if string(data) != "cp1-redo" {
		t.Errorf("content %q", data)
	}
}

func TestRecoverDamagedVersionOfEstablishedDB(t *testing.T) {
	// Losing the version file of an established database (later
	// checkpoints exist) must be reported, not silently reinitialized.
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "cp1")
	st, _ = Switch(fs, st, []byte("cp2"), 0)
	fs.Remove("version")
	if _, err := Recover(fs, 0); err == nil || errors.Is(err, ErrNotInitialized) {
		t.Errorf("got %v", err)
	}
}

// TestCheckpointWriterError: an error writing the new image fails the switch,
// which does not commit.
func TestCheckpointWriterError(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never})
	st := mustInit(t, ffs, "cp1")
	boom := errors.New("image write failed")
	ffs.FailName(CheckpointName(2), boom)
	if _, err := Switch(ffs, st, []byte("cp2"), 0); !errors.Is(err, boom) {
		t.Fatalf("got %v", err)
	}
	ffs.ClearFaults()
	got, err := Recover(ffs, 0)
	if err != nil || got.Version != 1 {
		t.Errorf("after failed switch: %+v, %v", got, err)
	}
}

func TestManySwitches(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "v1")
	for i := 2; i <= 20; i++ {
		var err error
		st, err = Switch(fs, st, []byte(fmt.Sprintf("v%d", i)), 1)
		if err != nil {
			t.Fatal(err)
		}
	}
	if st.Version != 20 {
		t.Fatalf("version %d", st.Version)
	}
	names, _ := fs.List()
	// Exactly: checkpoint19, checkpoint20, logfile19, logfile20, version.
	if len(names) != 5 {
		t.Errorf("directory has %d files: %v", len(names), names)
	}
	got, err := Recover(fs, 1)
	if err != nil || got.Version != 20 || !reflect.DeepEqual(got.Retained, []uint64{19}) {
		t.Errorf("recover: %+v, %v", got, err)
	}
}

// The exhaustive crash test: inject a sync failure at every possible sync
// point of a Switch, crash, and verify Recover lands on a consistent
// version (either old or new, with readable files).
func TestSwitchCrashAtEverySyncPoint(t *testing.T) {
	for failAt := 1; failAt <= 6; failAt++ {
		fs := vfs.NewMem(int64(failAt))
		st := mustInit(t, fs, "old-checkpoint")

		count := 0
		boom := errors.New("injected crash")
		fs.FailSync = func(name string) error {
			count++
			if count >= failAt {
				return boom
			}
			return nil
		}
		_, serr := Switch(fs, st, []byte("new-checkpoint"), 1)
		fs.FailSync = nil
		fs.Crash()

		got, err := Recover(fs, 1)
		if err != nil {
			t.Fatalf("failAt %d: recover: %v", failAt, err)
		}
		switch got.Version {
		case 1:
			if serr == nil {
				t.Errorf("failAt %d: switch claimed success but version is 1", failAt)
			}
			data, err := vfs.ReadFile(fs, got.CheckpointName())
			if err != nil || string(data) != "old-checkpoint" {
				t.Errorf("failAt %d: old checkpoint damaged: %q %v", failAt, data, err)
			}
		case 2:
			data, err := vfs.ReadFile(fs, got.CheckpointName())
			if err != nil || string(data) != "new-checkpoint" {
				t.Errorf("failAt %d: new checkpoint damaged: %q %v", failAt, data, err)
			}
		default:
			t.Errorf("failAt %d: impossible version %d", failAt, got.Version)
		}
	}
}

// TestShardedCleanupAndArchive: a version's log is the one file logfileN;
// retention keeps it, archival renames it to archive-logfileN, and cleanup
// without archival deletes it.
func TestShardedCleanupAndArchive(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "cp1")

	// Retained: the log survives.
	st2, err := SwitchWith(fs, st, []byte("cp2"), Options{Retain: 1, ArchiveLogs: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st2.Retained, []uint64{1}) || !vfs.Exists(fs, LogName(1)) {
		t.Fatalf("retained %v, %s present %v", st2.Retained, LogName(1), vfs.Exists(fs, LogName(1)))
	}

	// Out of the window: the log is archived, not deleted.
	if _, err := SwitchWith(fs, st2, []byte("cp3"), Options{Retain: 1, ArchiveLogs: true}); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{LogName(1), CheckpointName(1)} {
		if vfs.Exists(fs, n) {
			t.Errorf("%s survived cleanup", n)
		}
	}
	if !vfs.Exists(fs, ArchiveLogName(1)) {
		t.Error("archived log missing")
	}
	vers, err := ArchivedLogs(fs)
	if err != nil || !reflect.DeepEqual(vers, []uint64{1}) {
		t.Errorf("archived versions %v, %v", vers, err)
	}

	// Without archiving, cleanup deletes it.
	fs2 := vfs.NewMem(1)
	stA := mustInit(t, fs2, "cp1")
	if _, err := Switch(fs2, stA, []byte("cp2"), 0); err != nil {
		t.Fatal(err)
	}
	if vfs.Exists(fs2, LogName(1)) {
		t.Error("log survived unarchived cleanup")
	}
}

// TestShardedAbort: Abort clears the log file CreateLogFile made for a
// prepared switch along with its checkpoint.
func TestShardedAbort(t *testing.T) {
	fs := vfs.NewMem(1)
	st := mustInit(t, fs, "cp1")
	next, err := Prepare(fs, st, []byte("cp2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := CreateLogFile(fs, next, []byte("head"))
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	if head, err := wal.ReadHead(fs, LogName(next)); err != nil || string(head) != "head" {
		t.Fatalf("new log's head %q: %v", head, err)
	}
	Abort(fs, next)
	for _, n := range []string{LogName(next), CheckpointName(next)} {
		if vfs.Exists(fs, n) {
			t.Errorf("%s survived abort", n)
		}
	}
	if st2, err := Recover(fs, 0); err != nil || st2.Version != 1 {
		t.Errorf("recover after abort: %+v %v", st2, err)
	}
}
