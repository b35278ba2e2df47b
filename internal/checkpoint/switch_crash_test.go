package checkpoint

import (
	"fmt"
	"testing"

	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
	"smalldb/internal/wal"
)

// TestSwitchCrashWindows enumerates every crash point inside a checkpoint
// switch — during the new checkpoint's writes, between its fsync and the
// version-file rename, and after the rename — and checks the paper's
// protocol at each: a crash before the commit point (newversion durable)
// recovers the OLD checkpoint with its log fully intact, a crash after
// recovers the NEW one, and either way recovery leaves no debris (no
// orphaned checkpoint2/logfile2/newversion from an uncommitted switch).
func TestSwitchCrashWindows(t *testing.T) {
	logPayloads := [][]byte{[]byte("upd-1"), []byte("upd-2")}

	// scenario replays the fixed history: Init v1, two committed log
	// entries, then a switch to v2. Returns the op count where the
	// switch started.
	scenario := func(fs vfs.FS) (switchStart int64, err error) {
		st, err := Init(fs, writeBytes([]byte("old checkpoint")), nil)
		if err != nil {
			return 0, err
		}
		l, err := wal.Open(fs, st.LogName(), 1, wal.Options{})
		if err != nil {
			return 0, err
		}
		for _, p := range logPayloads {
			if _, err := l.Append(p); err != nil {
				return 0, err
			}
		}
		if err := l.Close(); err != nil {
			return 0, err
		}
		if ffs, ok := fs.(*faultfs.FS); ok {
			switchStart = ffs.OpCount()
		}
		_, err = SwitchWith(fs, st, writeBytes([]byte("new checkpoint")), Options{})
		return switchStart, err
	}

	// Reference run: learn the op indices of the switch window.
	ref := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never})
	switchStart, err := scenario(ref)
	if err != nil {
		t.Fatal(err)
	}
	total := ref.OpCount()
	if switchStart <= 0 || switchStart >= total {
		t.Fatalf("bad switch window [%d, %d)", switchStart, total)
	}

	sawOld, sawNew := false, false
	for n := switchStart; n <= total; n++ {
		ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: n})
		_, serr := scenario(ffs)
		if n < total && serr == nil {
			t.Fatalf("n=%d: switch did not observe the crash", n)
		}
		snap := ffs.Snapshot()

		st, err := RecoverWith(snap, Options{})
		if err != nil {
			t.Fatalf("n=%d: recovery failed: %v", n, err)
		}
		switch st.Version {
		case 1:
			sawOld = true
			// The old checkpoint and its FULL log must survive: the
			// uncommitted switch may not have eaten any update.
			data, err := vfs.ReadFile(snap, st.CheckpointName())
			if err != nil || string(data) != "old checkpoint" {
				t.Fatalf("n=%d: old checkpoint = %q, %v", n, data, err)
			}
			var got int
			res, err := wal.Replay(snap, st.LogName(), 1, wal.ReplayOptions{}, func(seq uint64, p []byte) error {
				if string(p) != string(logPayloads[got]) {
					return fmt.Errorf("entry %d = %q", seq, p)
				}
				got++
				return nil
			})
			if err != nil || res.Entries != len(logPayloads) {
				t.Fatalf("n=%d: old log replay: %d entries, %v", n, res.Entries, err)
			}
		case 2:
			sawNew = true
			data, err := vfs.ReadFile(snap, st.CheckpointName())
			if err != nil || string(data) != "new checkpoint" {
				t.Fatalf("n=%d: new checkpoint = %q, %v", n, data, err)
			}
			if size, err := snap.Stat(st.LogName()); err != nil || size != 0 {
				t.Fatalf("n=%d: new log size %d, %v; want empty", n, size, err)
			}
		default:
			t.Fatalf("n=%d: recovered version %d", n, st.Version)
		}

		// Recovery must have cleaned the directory down to exactly the
		// current pair plus the version file: an orphaned new
		// checkpoint, its empty log, or a stale newversion file must
		// all be gone.
		names, err := snap.List()
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{st.CheckpointName(): true, st.LogName(): true, "version": true}
		for _, name := range names {
			if !want[name] {
				t.Fatalf("n=%d: debris %q left after recovery (have %v)", n, name, names)
			}
			delete(want, name)
		}
		for name := range want {
			t.Fatalf("n=%d: %q missing after recovery", n, name)
		}
	}
	if !sawOld || !sawNew {
		t.Fatalf("sweep did not cover both outcomes: old=%v new=%v", sawOld, sawNew)
	}
}
