package wal

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

// The tests in this file drive the commit path the store uses — AppendAsync,
// then the returned wait once the store's own locks are released — and the
// one-file-per-log layout. Those named after sharded streams, seals and
// epochs check the rule each of those reduces to on the one log.

// commit appends payload through the store's path and waits for it.
func commit(t *testing.T, l *Log, payload string) uint64 {
	t.Helper()
	seq, wait := l.AppendAsync([]byte(payload))
	if err := wait(); err != nil {
		t.Fatalf("commit %q: %v", payload, err)
	}
	return seq
}

// strs replays the named log from firstSeq and returns its payloads.
func strs(t *testing.T, fs vfs.FS, name string, firstSeq uint64, opts ReplayOptions) (ReplayResult, []string) {
	t.Helper()
	res, got := collect(t, fs, name, firstSeq, opts)
	out := make([]string, len(got))
	for i, p := range got {
		out[i] = string(p)
	}
	return res, out
}

// holdFirstSync makes the first sync fs sees block until release is closed;
// entered is closed when it starts.
func holdFirstSync(fs *vfs.Mem) (entered, release chan struct{}) {
	entered, release = make(chan struct{}), make(chan struct{})
	var once sync.Once
	fs.FailSync = func(string) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	return entered, release
}

// notWithin fails the test if ch delivers within 50ms, and otherwise returns
// nothing: ch's sender must still be blocked.
func notWithin(t *testing.T, ch <-chan error, release chan struct{}, what string) {
	t.Helper()
	select {
	case err := <-ch:
		close(release)
		t.Fatalf("%s (%v)", what, err)
	case <-time.After(50 * time.Millisecond):
	}
}

// TestShardName: a log is one file. Through a whole mirror window the log
// touches the two files it is given and creates no other.
func TestShardName(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "logfile3", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	commit(t, l, "a")
	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	mf, err := fs.Create("logfile4")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachMirrorFile(mf); err != nil {
		t.Fatal(err)
	}
	commit(t, l, "b")
	if err := l.SyncMirror(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.FinishMirror("logfile4"); err != nil {
		t.Fatal(err)
	}
	commit(t, l, "c")
	l.Close()
	if names, _ := fs.List(); strings.Join(names, " ") != "logfile3 logfile4" {
		t.Errorf("files = %v, want logfile3 logfile4", names)
	}
}

// TestShardFiles: Replay reads the named file alone; a file named like a
// second stream of it adds nothing.
func TestShardFiles(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "logfile3", 1, Options{})
	commit(t, l, "one")
	commit(t, l, "two")
	l.Close()
	other, _ := Create(fs, "logfile3.1", 3, Options{})
	commit(t, other, "three")
	other.Close()

	res, got := strs(t, fs, "logfile3", 1, ReplayOptions{})
	if res.Entries != 2 || res.NextSeq != 3 || strings.Join(got, " ") != "one two" {
		t.Errorf("replay of logfile3: %+v %v", res, got)
	}
}

func TestShardedAppendReplay(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 23
	for i := 0; i < n; i++ {
		seq := commit(t, l, fmt.Sprintf("entry-%d", i))
		if seq != uint64(i+1) {
			t.Errorf("seq = %d, want %d", seq, i+1)
		}
		if d := l.DurableSeq(); d < seq {
			t.Errorf("acked seq %d above durable %d", seq, d)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	res, got := strs(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != n || res.LastSeq != n || res.NextSeq != n+1 {
		t.Fatalf("%+v", res)
	}
	for i, p := range got {
		if p != fmt.Sprintf("entry-%d", i) {
			t.Errorf("entry %d = %q", i, p)
		}
	}
}

// TestShardedMatchesSequential: the enqueue-then-wait path writes the very
// bytes Append does for the same history.
func TestShardedMatchesSequential(t *testing.T) {
	const n = 200
	write := func(async bool) []byte {
		fs := vfs.NewMem(1)
		l, _ := Create(fs, "log", 1, Options{})
		for i := 0; i < n; i++ {
			if async {
				commit(t, l, fmt.Sprintf("e%d", i))
			} else if _, err := l.Append([]byte(fmt.Sprintf("e%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		l.Close()
		data, _ := vfs.ReadFile(fs, "log")
		return data
	}
	if a, b := write(false), write(true); !bytes.Equal(a, b) {
		t.Fatalf("Append wrote %d bytes, AppendAsync %d, and they differ", len(a), len(b))
	}
}

// TestShardedReopenChangedShardCount: a log reopened from its replay goes on
// where it stopped, however often, and one replay reads every era.
func TestShardedReopenChangedShardCount(t *testing.T) {
	fs := vfs.NewMem(1)
	next := uint64(1)
	for round := 0; round < 3; round++ {
		l, err := Open(fs, "log", next, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			commit(t, l, fmt.Sprintf("r%d-%d", round, i))
		}
		l.Close()
		res, _ := strs(t, fs, "log", 1, ReplayOptions{})
		next = res.NextSeq
	}
	res, got := strs(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 12 || got[4] != "r1-0" || got[11] != "r2-3" {
		t.Fatalf("final: %+v %v", res, got)
	}
}

// TestShardedGapDiscardsUnacked: entries enqueued but never waited for are
// not acknowledged; a crash loses them without leaving a gap, and the
// reopened log reuses their sequences.
func TestShardedGapDiscardsUnacked(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	for i := 0; i < 4; i++ {
		commit(t, l, fmt.Sprintf("acked-%d", i))
	}
	l.AppendAsync([]byte("unacked-5"))
	l.AppendAsync([]byte("unacked-6"))
	if d := l.DurableSeq(); d != 4 {
		t.Fatalf("durable = %d with two entries never waited for, want 4", d)
	}
	fs.Crash()

	res, got := strs(t, fs, "log", 1, ReplayOptions{Repair: true})
	if res.Entries != 4 || res.NextSeq != 5 || got[3] != "acked-3" {
		t.Fatalf("after crash: %+v %v", res, got)
	}
	l2, err := Open(fs, "log", res.NextSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq := commit(t, l2, "fresh-5"); seq != 5 {
		t.Fatalf("reopened log took seq %d, want 5", seq)
	}
	l2.Close()
	if res, got := strs(t, fs, "log", 1, ReplayOptions{}); res.Entries != 5 || got[4] != "fresh-5" {
		t.Fatalf("after reuse: %+v %v", res, got)
	}
}

// TestShardedDuplicateSeqDetected: a sequence written twice, each copy with
// a valid checksum, is corruption rather than a crash artifact, and fails
// replay.
func TestShardedDuplicateSeqDetected(t *testing.T) {
	fs := vfs.NewMem(1)
	vfs.WriteFile(fs, "log", append(frame(1, []byte("first")), frame(1, []byte("again"))...))
	_, err := Replay(fs, "log", 1, ReplayOptions{}, func(uint64, []byte) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "sequence 1, want 2") {
		t.Fatalf("got %v", err)
	}
}

// TestShardedTornStreamTail: a torn tail is the unsynced last write; replay
// keeps the acknowledged prefix, Repair cuts the tail, and the log appends on
// from there.
func TestShardedTornStreamTail(t *testing.T) {
	fs := vfs.NewMem(3)
	l, _ := Create(fs, "log", 1, Options{})
	for i := 0; i < 4; i++ {
		commit(t, l, fmt.Sprintf("acked-%d", i))
	}
	l.Close()
	full := frame(5, []byte("this frame is torn in half"))
	f, _ := fs.Append("log")
	f.Write(full[:len(full)/2])
	f.Close()
	fs.CrashTorn(8)

	res, got := strs(t, fs, "log", 1, ReplayOptions{Repair: true})
	if res.Entries != 4 || !res.Truncated || got[3] != "acked-3" {
		t.Fatalf("%+v %v", res, got)
	}
	l2, err := Open(fs, "log", res.NextSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq := commit(t, l2, "next"); seq != 5 {
		t.Fatalf("seq = %d, want 5", seq)
	}
	l2.Close()
}

// TestShardedConcurrentAppenders is the -race stress of the enqueue, the
// wait and the durable frontier.
func TestShardedConcurrentAppenders(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	var wg sync.WaitGroup
	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, wait := l.AppendAsync([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err := wait(); err != nil {
					t.Error(err)
					return
				}
				if d := l.DurableSeq(); d < seq {
					t.Errorf("acked %d above durable %d", seq, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	if res, _ := collect(t, fs, "log", 1, ReplayOptions{}); res.Entries != writers*each {
		t.Errorf("%+v", res)
	}
}

// TestShardedEpochBatching: committers that overlap share syncs on the
// enqueue-then-wait path too, so the sync count stays well below the entry
// count — the group commit E5 measures.
func TestShardedEpochBatching(t *testing.T) {
	t.Run("one-log", testGroupCommitBatches)
}

func testGroupCommitBatches(t *testing.T) {
	fs := vfs.NewMem(1)
	var mu sync.Mutex
	syncs := 0
	fs.FailSync = func(string) error {
		mu.Lock()
		syncs++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return nil
	}
	l, _ := Create(fs, "log", 1, Options{})
	mu.Lock()
	baseline := syncs
	mu.Unlock()
	var wg sync.WaitGroup
	const writers, each = 16, 20
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, wait := l.AppendAsync([]byte("payload"))
				wait()
			}
		}()
	}
	wg.Wait()
	l.Close()
	mu.Lock()
	total := syncs - baseline
	mu.Unlock()
	if total >= writers*each/2 {
		t.Errorf("group commit did not batch: %d syncs for %d entries", total, writers*each)
	}
}

// TestShardedOneStreamIsPlainLog: the log runs no goroutine of its own —
// every flush runs on a committer's — and writes only its own file.
func TestShardedOneStreamIsPlainLog(t *testing.T) {
	fs := vfs.NewMem(1)
	before := runtime.NumGoroutine()
	l, err := Open(fs, "log", 1, Options{Head: []byte("h")})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		commit(t, l, fmt.Sprintf("e%d", i))
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("the log started %d goroutines", n-before)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); len(names) != 1 || names[0] != "log" {
		t.Errorf("the log left %v, want just its file", names)
	}
	if res, got := strs(t, fs, "log", 1, ReplayOptions{}); res.Entries != 10 || got[9] != "e9" || string(res.Head) != "h" {
		t.Errorf("replay: %+v", res)
	}
}

func TestShardedFlushDurable(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	var waits []func() error
	for i := 0; i < 5; i++ {
		_, wait := l.AppendAsync([]byte(fmt.Sprintf("async-%d", i)))
		waits = append(waits, wait)
	}
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := l.DurableSeq(); d != 5 {
		t.Errorf("durable = %d, want 5", d)
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	fs.Crash()
	if res, _ := collect(t, fs, "log", 1, ReplayOptions{}); res.Entries != 5 {
		t.Errorf("flush not durable: %+v", res)
	}
}

// TestShardedSequentialSync: committers that do not overlap pay exactly one
// sync each — E5's base arm, and the determinism the crash sweeps index
// their file operations by.
func TestShardedSequentialSync(t *testing.T) {
	fs := vfs.NewMem(1)
	syncs := 0
	fs.FailSync = func(string) error { syncs++; return nil }
	l, _ := Create(fs, "log", 1, Options{})
	syncs = 0
	for i := 0; i < 16; i++ {
		commit(t, l, fmt.Sprintf("e%d", i))
	}
	if syncs != 16 {
		t.Errorf("%d syncs for 16 serial commits, want 16", syncs)
	}
	l.Close()
}

// TestShardedMirrorWindow drives a mirror window on the enqueue-then-wait
// path: the old file stays the commit point throughout, and after the
// retarget the new file holds every window entry — the checkpoint flip
// invariant.
func TestShardedMirrorWindow(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "old", 1, Options{})
	for i := 0; i < 5; i++ { // seqs 1..5: before the window
		commit(t, l, fmt.Sprintf("pre-%d", i))
	}
	if l.MirrorActive() {
		t.Fatal("mirror active before BeginMirror")
	}
	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	if !l.MirrorActive() {
		t.Fatal("mirror not active")
	}
	f, err := fs.Create("new")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachMirrorFile(f); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // seqs 6..9: dual-written
		commit(t, l, fmt.Sprintf("win-%d", i))
	}
	if err := l.SyncMirror(); err != nil {
		t.Fatal(err)
	}
	entries, err := l.FinishMirror("new")
	if err != nil {
		t.Fatal(err)
	}
	if entries != 4 || l.MirrorActive() {
		t.Errorf("window entries = %d, still active %v; want 4, false", entries, l.MirrorActive())
	}
	for i := 0; i < 2; i++ { // seqs 10..11: new file only
		commit(t, l, fmt.Sprintf("post-%d", i))
	}
	l.Close()

	if res, got := strs(t, fs, "old", 1, ReplayOptions{}); res.Entries != 9 || got[5] != "win-0" {
		t.Fatalf("old file: %+v %v", res, got)
	}
	if res, got := strs(t, fs, "new", 6, ReplayOptions{}); res.Entries != 6 || res.LastSeq != 11 || got[0] != "win-0" || got[5] != "post-1" {
		t.Fatalf("new file: %+v %v", res, got)
	}
}

// TestSealWaitsForStreamFlushInFlight: a checkpoint's SyncMirror flushes the
// log on its own goroutine, taking a committer's frame with it. The
// committer's wait then finds nothing pending — and must still not
// acknowledge the frame until the flush carrying it has synced.
func TestSealWaitsForStreamFlushInFlight(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "old", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("new")
	if err != nil {
		t.Fatal(err)
	}
	if err := l.AttachMirrorFile(f); err != nil {
		t.Fatal(err)
	}
	_, wait := l.AppendAsync([]byte("in the window"))

	entered, release := holdFirstSync(fs)
	mirrored := make(chan error, 1)
	go func() { mirrored <- l.SyncMirror() }()
	<-entered // SyncMirror's flush holds the frame; its sync is in flight

	acked := make(chan error, 1)
	go func() { acked <- wait() }()
	notWithin(t, acked, release, "entry acknowledged while the flush carrying it is still syncing")
	close(release)
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if err := <-mirrored; err != nil {
		t.Fatal(err)
	}
	l.AbortMirror()
	l.Close()
}

// TestCloseIsTheLastSeal: a committer still waiting when the log closes is
// acknowledged by the closing flush — not before it, and not with an error
// for having waited across Close — and an entry offered while that flush
// runs is refused rather than left behind it.
func TestCloseIsTheLastSeal(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, wait := l.AppendAsync([]byte("last"))

	entered, release := holdFirstSync(fs)
	closed := make(chan error, 1)
	go func() { closed <- l.Close() }()
	<-entered
	if seq, _ := l.AppendAsync([]byte("late")); seq != 0 {
		t.Errorf("entry offered during the closing flush took seq %d", seq)
	}

	acked := make(chan error, 1)
	go func() { acked <- wait() }()
	notWithin(t, acked, release, "entry acknowledged while the closing flush is still syncing")
	close(release)
	if err := <-acked; err != nil {
		t.Fatalf("waiter across Close: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if res, _ := collect(t, fs, "log", 1, ReplayOptions{}); res.Entries != 1 {
		t.Errorf("closing flush lost the entry: %+v", res)
	}
}

func TestShardedAbortMirror(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "old", 1, Options{})
	commit(t, l, "a")
	if err := l.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	l.AbortMirror()
	if l.MirrorActive() {
		t.Error("mirror still active after abort")
	}
	commit(t, l, "b")
	l.Close()
	if res, _ := collect(t, fs, "old", 1, ReplayOptions{}); res.Entries != 2 {
		t.Errorf("%+v", res)
	}
}

// TestShardedClosed: a closed log takes no entry, and its Flush reports
// what Close left — nothing to make durable — since a committer that has
// released its locks may reach Flush after Close.
func TestShardedClosed(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if seq, wait := l.AppendAsync([]byte("x")); seq != 0 || !errors.Is(wait(), ErrClosed) {
		t.Errorf("enqueue on closed: seq %d, wait %v", seq, wait())
	}
	if err := l.Flush(); err != nil {
		t.Errorf("flush on closed: %v", err)
	}
	if err := l.Close(); err != nil { // double close is fine
		t.Errorf("double close: %v", err)
	}
}

// TestFirstSeqSharded: FirstSeq looks past the head frame to the first
// entry, however the log was opened; a log holding only a head has none.
func TestFirstSeqSharded(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Open(fs, "log", 7, Options{Head: []byte("h")})
	for i := 0; i < 4; i++ { // seqs 7..10
		commit(t, l, "x")
	}
	l.Close()
	if seq, ok, err := FirstSeq(fs, "log"); err != nil || !ok || seq != 7 {
		t.Errorf("got %d %v %v", seq, ok, err)
	}

	l2, _ := Open(fs, "empty", 1, Options{Head: []byte("h")})
	l2.Close()
	if _, ok, err := FirstSeq(fs, "empty"); ok || err != nil {
		t.Errorf("head only: %v %v", ok, err)
	}
}

// TestShardedAppendAllocCeiling pins the store's commit path's allocation
// count: the enqueue frames in place and adds only the wait closure to what
// Append costs.
func TestShardedAppendAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 256)
	for i := 0; i < 32; i++ {
		if _, wait := l.AppendAsync(payload); wait() != nil {
			t.Fatal("warm-up commit failed")
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, wait := l.AppendAsync(payload); wait() != nil {
			t.Fatal("commit failed")
		}
	})
	if allocs > 4 {
		t.Errorf("AppendAsync+wait: %.1f allocs/op, want <= 4", allocs)
	}
}

// TestShardedStreamsShareHead pins Open's head rule: a file that is absent,
// or left empty by a crash inside its creation, gets opts.Head before it
// takes an entry; a file that exists keeps the head it has, or its lack of
// one, so a writer pickles against the table its file's readers will use.
func TestShardedStreamsShareHead(t *testing.T) {
	fs := vfs.NewMem(1)
	open := func(head string) *Log {
		t.Helper()
		l, err := Open(fs, "log", 1, Options{Head: []byte(head)})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open("h")
	if string(l.Head()) != "h" {
		t.Fatalf("fresh log: head %q", l.Head())
	}
	l.Close()
	if err := vfs.WriteFile(fs, "log", nil); err != nil {
		t.Fatal(err)
	}
	l = open("this process's")
	l.Close()
	if head, err := ReadHead(fs, "log"); err != nil || string(head) != "this process's" {
		t.Fatalf("emptied log re-headed with %q: %v", head, err)
	}
	l = open("another")
	if string(l.Head()) != "this process's" {
		t.Fatalf("existing head replaced: %q", l.Head())
	}
	l.Close()

	if err := vfs.WriteFile(fs, "log", frame(1, []byte("headless"))); err != nil {
		t.Fatal(err)
	}
	l = open("h")
	if l.Head() != nil {
		t.Fatalf("headless log given head %q", l.Head())
	}
	l.Close()
}

// statFails is a file system whose Stat fails with an error other than
// "does not exist", as a disk read error would.
type statFails struct {
	*vfs.Mem
	err error
}

func (f statFails) Stat(string) (int64, error) { return 0, f.err }

// TestOpenStatErrorKeepsLog: Open writes a head only over a file that is
// absent or empty. A file it cannot stat may hold acknowledged updates, so
// Open returns the error and leaves the bytes alone.
func TestOpenStatErrorKeepsLog(t *testing.T) {
	mem := vfs.NewMem(1)
	l, _ := Open(mem, "log", 1, Options{Head: []byte("h")})
	commit(t, l, "acknowledged")
	l.Close()
	before, _ := vfs.ReadFile(mem, "log")

	eio := errors.New("input/output error")
	if _, err := Open(statFails{mem, eio}, "log", 2, Options{Head: []byte("h")}); !errors.Is(err, eio) {
		t.Fatalf("Open over a failing stat = %v, want %v", err, eio)
	}
	if after, _ := vfs.ReadFile(mem, "log"); !bytes.Equal(before, after) {
		t.Fatalf("log rewritten: %q became %q", before, after)
	}
}
