package wal

import (
	"bytes"
	"fmt"
	"testing"

	"smalldb/internal/vfs"
)

// The tests in this file drive a checkpoint's use of the log: BeginTail at
// its start, EndTail and Retarget at its flip. The new log file mirrors the
// window between the two — it gets a copy of every entry the window
// committed — so the names keep the word.

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

// flip does what the store's checkpoint does at its flip, with appends
// quiesced: flush the log, end the tail, write it into a new file named name
// holding head's frame, sync that and retarget the log to it. It reports the
// tail's entries.
func flip(t *testing.T, l *Log, fs vfs.FS, name string, head []byte) int64 {
	t.Helper()
	f, err := fs.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(HeadFrame(head)); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	tail, entries := l.EndTail()
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := l.Retarget(f); err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestMirrorWindowReplayBothFiles drives a checkpoint's window from
// BeginTail to the retarget and checks the two invariants the checkpoint
// relies on: every entry acknowledged before the flip is durable in the OLD
// file (recovery before the version flip), and the NEW file holds every entry
// of the window — those committed through Append and through the
// enqueue-then-wait path alike — followed by every entry after it
// (recovery after the flip).
func TestMirrorWindowReplayBothFiles(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pre := mirrorAppend(t, l, 3, "pre") // seqs 1..3, before the window
	if err := l.BeginTail(); err != nil {
		t.Fatal(err)
	}
	win := mirrorAppend(t, l, 2, "win") // seqs 4..5
	for i := 0; i < 2; i++ {            // seqs 6..7
		p := fmt.Sprintf("async-%d", i)
		commit(t, l, p)
		win = append(win, p)
	}
	if entries := flip(t, l, fs, "log2", []byte("head")); entries != 4 {
		t.Errorf("tail entries = %d, want 4", entries)
	}
	tail := int64(0)
	for i, p := range win {
		tail += int64(len(frame(uint64(4+i), []byte(p))))
	}
	if got := l.Size(); got != tail {
		t.Errorf("Size after the retarget = %d, want the tail's %d bytes", got, tail)
	}
	post := mirrorAppend(t, l, 2, "post") // seqs 8..9, new file only
	l.Close()

	// The old file holds everything up to the flip: it stayed the commit
	// point throughout.
	_, got := strs(t, fs, "log1", 1, ReplayOptions{})
	if want := append(append([]string{}, pre...), win...); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("old log holds %v, want %v", got, want)
	}
	// The new file holds its head, the window and everything after it,
	// starting at the window's first sequence — exactly what replay from
	// the new checkpoint needs.
	res, got := strs(t, fs, "log2", 4, ReplayOptions{})
	if want := append(append([]string{}, win...), post...); fmt.Sprint(got) != fmt.Sprint(want) || string(res.Head) != "head" {
		t.Errorf("new log holds head %q and %v, want %q and %v", res.Head, got, "head", want)
	}
}

// TestMirrorCarriesUnflushedTail: the tail copies a frame when it is
// appended, before any flush writes it, and Retarget refuses to move a log
// whose frames are not yet durable in the old file — they would land in the
// new file twice, or in no file recovery reads before the flip.
func TestMirrorCarriesUnflushedTail(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := l.BeginTail(); err != nil {
		t.Fatal(err)
	}
	l.AppendAsync([]byte("unflushed"))
	tail, entries := l.EndTail()
	if entries != 1 || !bytes.Equal(tail, frame(1, []byte("unflushed"))) {
		t.Errorf("tail = %q (%d entries), want the unflushed frame", tail, entries)
	}
	f, err := fs.Create("log2")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Retarget(f); err == nil {
		t.Fatal("Retarget accepted a log with an unflushed frame")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if res, _ := collect(t, fs, "log1", 1, ReplayOptions{}); res.Entries != 1 {
		t.Errorf("old log holds %d entries, want the flushed frame", res.Entries)
	}
	if err := l.Retarget(f); err != nil {
		t.Fatalf("Retarget on a flushed log: %v", err)
	}
}

// TestBeginTailRequiresFlushedLog: the tail may only begin on a flushed
// log (the store holds the update lock and flushes first); an unflushed
// frame would be in neither the checkpoint's pickled root nor the tail —
// lost after the flip.
func TestBeginTailRequiresFlushedLog(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	l.AppendAsync([]byte("x"))
	if err := l.BeginTail(); err == nil {
		t.Fatal("BeginTail accepted a log with pending frames")
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := l.BeginTail(); err != nil {
		t.Fatalf("BeginTail on a flushed log: %v", err)
	}
}

// TestAbortMirror: a checkpoint that aborts ends its tail without a
// retarget. The log keeps committing to its original file as if nothing
// happened, and copies nothing more; ending a tail that is not open is
// harmless.
func TestAbortMirror(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log1", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BeginTail(); err != nil {
		t.Fatal(err)
	}
	mirrorAppend(t, l, 2, "win")
	l.EndTail()
	commit(t, l, "after-0")
	mirrorAppend(t, l, 1, "after")
	if tail, entries := l.EndTail(); tail != nil || entries != 0 {
		t.Errorf("ended tail copied %q (%d entries)", tail, entries)
	}
	l.Close()

	if res, _ := collect(t, fs, "log1", 1, ReplayOptions{}); res.Entries != 4 {
		t.Errorf("old log entries = %d, want 4", res.Entries)
	}
	if names, _ := fs.List(); len(names) != 1 {
		t.Errorf("files = %v, want log1 alone", names)
	}
}
