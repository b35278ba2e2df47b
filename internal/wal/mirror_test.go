package wal

import (
	"errors"
	"fmt"
	"testing"

	"smalldb/internal/vfs"
)

// mirrorAppend appends n entries tagged with tag and returns their payloads.
func mirrorAppend(t *testing.T, l *Log, n int, tag string) []string {
	t.Helper()
	var out []string
	for i := 0; i < n; i++ {
		p := fmt.Sprintf("%s-%d", tag, i)
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatalf("append %s: %v", p, err)
		}
		out = append(out, p)
	}
	return out
}

// TestMirrorWindowReplayBothFiles drives a full mirror window and checks the
// two invariants the checkpoint protocol relies on: every entry acknowledged
// before the window closes is durable in the OLD file (recovery before the
// version flip), and every entry of the window is durable in the NEW file
// (recovery after the flip) — including entries appended before the mirror
// file even existed and entries appended after the dual-write began.
func TestMirrorWindowReplayBothFiles(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre := mirrorAppend(t, l, 3, "pre") // seqs 1..3, before the window

	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	early := mirrorAppend(t, l, 2, "early") // seqs 4..5, buffered: no mirror file yet

	mf, err := fs.Create("log2")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachMirrorFile(mf); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncMirror(); err != nil {
		t.Fatal(err)
	}
	late := mirrorAppend(t, l, 2, "late") // seqs 6..7, dual-written

	entries, err := l.FinishMirror("log2")
	if err != nil {
		t.Fatal(err)
	}
	if entries != 4 {
		t.Errorf("window entries = %d, want 4", entries)
	}
	post := mirrorAppend(t, l, 2, "post") // seqs 8..9, new file only
	l.Close()

	// The old file holds everything up to the window's end: it stayed the
	// commit point throughout.
	res, got := collect(t, fs, "log1", 1, ReplayOptions{})
	want := append(append(append([]string{}, pre...), early...), late...)
	if res.Entries != len(want) {
		t.Fatalf("old log: %d entries, want %d", res.Entries, len(want))
	}
	for i, p := range got {
		if string(p) != want[i] {
			t.Errorf("old log entry %d = %q, want %q", i, p, want[i])
		}
	}

	// The new file holds the window plus everything after it, starting at
	// the window's first sequence — exactly what replay from the new
	// checkpoint needs.
	res2, got2 := collect(t, fs, "log2", 4, ReplayOptions{})
	want2 := append(append(append([]string{}, early...), late...), post...)
	if res2.Entries != len(want2) || res2.LastSeq != 9 {
		t.Fatalf("new log: %+v, want %d entries ending at seq 9", res2, len(want2))
	}
	for i, p := range got2 {
		if string(p) != want2[i] {
			t.Errorf("new log entry %d = %q, want %q", i, p, want2[i])
		}
	}
}

// TestMirrorCarriesUnflushedTail: frames appended after the last SyncMirror
// and still unflushed when FinishMirror runs must commit to the NEW file —
// the retarget hands the pending tail over rather than dropping it.
func TestMirrorCarriesUnflushedTail(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	mf, _ := fs.Create("log2")
	if err := l.AttachMirrorFile(mf); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncMirror(); err != nil {
		t.Fatal(err)
	}
	l.AppendAsync([]byte("tail"))
	if _, err := l.FinishMirror("log2"); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatalf("tail commit after retarget: %v", err)
	}
	l.Close()
	res, got := collect(t, fs, "log2", 1, ReplayOptions{})
	if res.Entries != 1 || string(got[0]) != "tail" {
		t.Errorf("new log: %+v %q", res, got)
	}
}

// TestBeginMirrorRequiresQuiescedLog: the window may only open on a flushed
// log (the store holds the update lock and flushes first); an unflushed
// frame would be invisible to the checkpoint's pickled root AND missing
// from the mirror — lost after the flip.
func TestBeginMirrorRequiresQuiescedLog(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendAsync([]byte("x"))
	if err := l.BeginMirror(); err == nil {
		t.Fatal("BeginMirror accepted a log with pending frames")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.BeginMirror(); err != nil {
		t.Fatalf("BeginMirror on flushed log: %v", err)
	}
	if err := l.BeginMirror(); err == nil {
		t.Fatal("BeginMirror accepted a second window")
	}
	l.AbortMirror()
}

// TestAbortMirror: aborting the window discards the mirror state and the
// log keeps committing to its original file as if nothing happened.
func TestAbortMirror(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	mirrorAppend(t, l, 2, "win")
	mf, _ := fs.Create("log2")
	if err := l.AttachMirrorFile(mf); err != nil {
		t.Fatal(err)
	}
	l.AbortMirror()
	mirrorAppend(t, l, 2, "after")
	l.Close()

	res, _ := collect(t, fs, "log1", 1, ReplayOptions{})
	if res.Entries != 4 {
		t.Errorf("old log entries = %d, want 4", res.Entries)
	}
	// Aborting twice, or with no window open, is harmless.
	l2, _ := Create(fs, "log3", 1, Options{})
	l2.AbortMirror()
	l2.Close()
}

// TestMirrorSyncFailurePoisons: once the dual-write rule is in force, a
// mirror-file sync failure must fail the acknowledgement and poison the
// log — acking on the old file alone would let the version flip lose the
// update.
func TestMirrorSyncFailurePoisons(t *testing.T) {
	fs := vfs.NewMem(1)
	boom := errors.New("mirror disk died")
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	mf, _ := fs.Create("log2")
	if err := l.AttachMirrorFile(mf); err != nil {
		t.Fatal(err)
	}
	if err := l.SyncMirror(); err != nil {
		t.Fatal(err)
	}
	fs.FailSync = func(name string) error {
		if name == "log2" {
			return boom
		}
		return nil
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("append during failed mirror sync: %v, want %v", err, boom)
	}
	fs.FailSync = nil
	if _, err := l.Append([]byte("y")); !errors.Is(err, boom) {
		t.Fatalf("log not poisoned after mirror failure: %v", err)
	}
	if _, err := l.FinishMirror("log2"); !errors.Is(err, boom) {
		t.Fatalf("FinishMirror on poisoned log: %v", err)
	}
	l.AbortMirror()
	l.Close()
}
