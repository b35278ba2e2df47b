package checkpoint

import (
	"reflect"
	"testing"

	"smalldb/internal/vfs"
)

func initV1(t *testing.T, fs vfs.FS, body string) State {
	t.Helper()
	st, err := Init(fs, []byte(body), nil)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func names(t *testing.T, fs vfs.FS) []string {
	t.Helper()
	ns, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	return ns
}

// TestSplitStepsEquivalentToSwitch: running the split steps in order must
// leave the directory in exactly the state one SwitchWith call does — the
// split API is a decomposition, not a second protocol.
func TestSplitStepsEquivalentToSwitch(t *testing.T) {
	image := []byte("root-v2")

	monoFS := vfs.NewMem(1)
	monoSt, err := SwitchWith(monoFS, initV1(t, monoFS, "root-v1"), image, Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}

	splitFS := vfs.NewMem(1)
	cur := initV1(t, splitFS, "root-v1")
	next, err := Prepare(splitFS, cur, image, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if next != cur.Version+1 {
		t.Fatalf("Prepare returned version %d, want %d", next, cur.Version+1)
	}
	lf, err := CreateLogFile(splitFS, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := CommitNewVersion(splitFS, next); err != nil {
		t.Fatal(err)
	}
	if err := InstallVersion(splitFS); err != nil {
		t.Fatal(err)
	}
	splitSt, err := Finish(splitFS, next, Options{Retain: 1})
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(monoSt, splitSt) {
		t.Errorf("states diverge: switch %+v, split %+v", monoSt, splitSt)
	}
	if a, b := names(t, monoFS), names(t, splitFS); !reflect.DeepEqual(a, b) {
		t.Errorf("directories diverge: switch %v, split %v", a, b)
	}
	if data, err := vfs.ReadFile(splitFS, splitSt.CheckpointName()); err != nil || string(data) != "root-v2" {
		t.Errorf("checkpoint contents %q, %v", data, err)
	}
}

// TestSplitCrashBetweenCommitAndInstall: once CommitNewVersion has synced
// the newversion file, the switch is committed — a crash before
// InstallVersion/Finish must still recover to the NEW version, with
// recovery completing the rename and the cleanup.
func TestSplitCrashBetweenCommitAndInstall(t *testing.T) {
	fs := vfs.NewMem(1)
	cur := initV1(t, fs, "root-v1")
	next, err := Prepare(fs, cur, []byte("root-v2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := CreateLogFile(fs, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	lf.Close()
	if err := CommitNewVersion(fs, next); err != nil {
		t.Fatal(err)
	}
	// "Crash": neither InstallVersion nor Finish runs.
	st, err := RecoverWith(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != next {
		t.Fatalf("recovered version %d, want %d", st.Version, next)
	}
	for _, n := range []string{newVersionFile, CheckpointName(cur.Version), LogName(cur.Version)} {
		if vfs.Exists(fs, n) {
			t.Errorf("recovery left %s behind", n)
		}
	}
}

// TestSplitCrashBeforeCommit: with the checkpoint and log files of the next
// version written but newversion absent, the OLD version must recover and
// the debris must be cleared — the window in which the non-blocking
// checkpoint does all its heavy I/O.
func TestSplitCrashBeforeCommit(t *testing.T) {
	fs := vfs.NewMem(1)
	cur := initV1(t, fs, "root-v1")
	next, err := Prepare(fs, cur, []byte("root-v2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := CreateLogFile(fs, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	lf.Close()
	st, err := RecoverWith(fs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.Version != cur.Version {
		t.Fatalf("recovered version %d, want %d", st.Version, cur.Version)
	}
	for _, n := range []string{CheckpointName(next), LogName(next)} {
		if vfs.Exists(fs, n) {
			t.Errorf("recovery left %s behind", n)
		}
	}
}

// TestAbortClearsPreparedFiles: Abort removes what Prepare and
// CreateLogFile made, leaving the old version's state untouched.
func TestAbortClearsPreparedFiles(t *testing.T) {
	fs := vfs.NewMem(1)
	cur := initV1(t, fs, "root-v1")
	next, err := Prepare(fs, cur, []byte("root-v2"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	lf, err := CreateLogFile(fs, next, nil)
	if err != nil {
		t.Fatal(err)
	}
	lf.Close()
	Abort(fs, next)
	for _, n := range []string{CheckpointName(next), LogName(next)} {
		if vfs.Exists(fs, n) {
			t.Errorf("Abort left %s behind", n)
		}
	}
	st, err := RecoverWith(fs, Options{})
	if err != nil || st.Version != cur.Version {
		t.Fatalf("after abort: %+v, %v", st, err)
	}
	// Aborting twice is harmless.
	Abort(fs, next)
}
