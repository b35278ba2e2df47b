package wal

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"smalldb/internal/vfs"
)

// collectSharded merge-replays the sharded log rooted at base and returns
// the payloads in applied (global-sequence) order.
func collectSharded(t *testing.T, fs vfs.FS, base string, firstSeq uint64, opts ReplayOptions) (ShardedReplayResult, []string) {
	t.Helper()
	var got []string
	res, err := ReplayShardedPipelined(fs, base, firstSeq, opts, 4,
		func([]byte) (DecodeFunc, error) {
			return func(seq uint64, payload []byte) (any, error) { return string(payload), nil }, nil
		},
		func(seq uint64, v any) error {
			got = append(got, v.(string))
			return nil
		})
	if err != nil {
		t.Fatalf("ReplayShardedPipelined: %v", err)
	}
	return res, got
}

func TestShardName(t *testing.T) {
	if got := ShardName("logfile3", 0); got != "logfile3" {
		t.Errorf("shard 0 = %q", got)
	}
	if got := ShardName("logfile3", 2); got != "logfile3.2" {
		t.Errorf("shard 2 = %q", got)
	}
}

func TestShardFiles(t *testing.T) {
	fs := vfs.NewMem(1)
	for _, n := range []string{"logfile3.10", "logfile3", "logfile3.2", "logfile30", "logfile3.x", "other", "logfile3.0"} {
		vfs.WriteFile(fs, n, []byte{})
	}
	names, err := ShardFiles(fs, "logfile3")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"logfile3", "logfile3.2", "logfile3.10"}
	if len(names) != len(want) {
		t.Fatalf("names = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

func TestShardedAppendReplay(t *testing.T) {
	for _, shards := range []int{1, 2, 3, 4} {
		fs := vfs.NewMem(1)
		s, err := OpenSharded(fs, "log", shards, 1, nil, ShardedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		const n = 23
		for i := 0; i < n; i++ {
			seq, err := s.Append([]byte(fmt.Sprintf("entry-%d", i)))
			if err != nil {
				t.Fatal(err)
			}
			if seq != uint64(i+1) {
				t.Errorf("shards=%d: seq = %d, want %d", shards, seq, i+1)
			}
			if d := s.DurableSeq(); d < seq {
				t.Errorf("shards=%d: acked seq %d above durable frontier %d", shards, seq, d)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}

		res, got := collectSharded(t, fs, "log", 1, ReplayOptions{})
		if res.Entries != n || res.LastSeq != n || res.NextSeq != n+1 || res.GapAt != 0 {
			t.Fatalf("shards=%d: %+v", shards, res)
		}
		if len(res.Names) != shards {
			t.Errorf("shards=%d: discovered %v", shards, res.Names)
		}
		for i, p := range got {
			if p != fmt.Sprintf("entry-%d", i) {
				t.Errorf("shards=%d: entry %d = %q", shards, i, p)
			}
		}
	}
}

// TestShardedMatchesSequential: the merge replay of N streams delivers the
// exact sequence a single-stream log would — same order, same payloads —
// for the same appended history.
func TestShardedMatchesSequential(t *testing.T) {
	const n = 200
	single := vfs.NewMem(1)
	l, _ := Create(single, "log", 1, Options{})
	for i := 0; i < n; i++ {
		l.Append([]byte(fmt.Sprintf("e%d", i)))
	}
	l.Close()
	_, want := collect(t, single, "log", 1, ReplayOptions{})

	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 4, 1, nil, ShardedOptions{})
	for i := 0; i < n; i++ {
		s.Append([]byte(fmt.Sprintf("e%d", i)))
	}
	s.Close()
	res, got := collectSharded(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != len(want) {
		t.Fatalf("entries = %d, want %d", res.Entries, len(want))
	}
	for i := range want {
		if got[i] != string(want[i]) {
			t.Fatalf("entry %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestShardedReopenChangedShardCount: recovery replays whatever streams
// exist, so the shard count can change across restarts in both directions.
func TestShardedReopenChangedShardCount(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 3, 1, nil, ShardedOptions{})
	for i := 0; i < 10; i++ {
		s.Append([]byte(fmt.Sprintf("a%d", i)))
	}
	s.Close()

	for _, newShards := range []int{2, 5} {
		res, _ := collectSharded(t, fs, "log", 1, ReplayOptions{})
		if res.Entries < 10 {
			t.Fatalf("newShards=%d: lost entries: %+v", newShards, res)
		}
		s2, err := OpenSharded(fs, "log", newShards, res.NextSeq, nil, ShardedOptions{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := s2.Append([]byte(fmt.Sprintf("b%d", newShards)))
		if err != nil || seq != res.NextSeq {
			t.Fatalf("newShards=%d: seq=%d err=%v want %d", newShards, seq, err, res.NextSeq)
		}
		s2.Close()
	}
	res, got := collectSharded(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 12 || got[10] != "b2" || got[11] != "b5" {
		t.Fatalf("final: %+v %v", res, got)
	}
}

// TestShardedGapDiscardsUnacked: the first missing global sequence ends
// recovery; intact entries beyond it on other streams belong to epochs
// whose barrier never completed and are discarded — and with Repair,
// truncated so the sequences can be reused.
func TestShardedGapDiscardsUnacked(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 2, 1, nil, ShardedOptions{})
	for i := 0; i < 4; i++ { // seqs 1..4, acked
		s.Append([]byte(fmt.Sprintf("acked-%d", i)))
	}
	s.Close()

	// Simulate a crash that synced stream 1's tail of a later epoch but
	// never stream 0's: seq 7 lands on stream 1 (7 mod 2), seqs 5, 6
	// are missing entirely.
	l, err := Open(fs, "log.1", 7, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("orphan-7")); err != nil {
		t.Fatal(err)
	}
	l.Close()

	res, got := collectSharded(t, fs, "log", 1, ReplayOptions{Repair: true})
	if res.Entries != 4 || res.LastSeq != 4 || res.NextSeq != 5 {
		t.Fatalf("prefix: %+v", res)
	}
	if res.GapAt != 5 || res.Discarded != 1 {
		t.Fatalf("gap accounting: %+v", res)
	}
	if got[3] != "acked-3" {
		t.Errorf("entries: %v", got)
	}

	// After repair the orphan is gone from disk: reopening at NextSeq and
	// appending reuses sequence 5 with no collision.
	s2, err := OpenSharded(fs, "log", 2, res.NextSeq, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := s2.Append([]byte("fresh-5")); err != nil || seq != 5 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	s2.Close()
	res2, got2 := collectSharded(t, fs, "log", 1, ReplayOptions{})
	if res2.Entries != 5 || res2.GapAt != 0 || got2[4] != "fresh-5" {
		t.Fatalf("after repair: %+v %v", res2, got2)
	}
}

// TestShardedDuplicateSeqDetected: the same global sequence on two streams
// is corruption, not a crash artifact, and must fail recovery.
func TestShardedDuplicateSeqDetected(t *testing.T) {
	fs := vfs.NewMem(1)
	for _, name := range []string{"log", "log.1"} {
		l, _ := Create(fs, name, 1, Options{})
		l.Append([]byte("both-claim-seq-1"))
		l.Close()
	}
	_, err := ReplayShardedPipelined(fs, "log", 1, ReplayOptions{}, 2,
		func([]byte) (DecodeFunc, error) { return func(uint64, []byte) (any, error) { return nil, nil }, nil },
		func(seq uint64, v any) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("got %v", err)
	}
}

// TestShardedTornStreamTail: a torn tail on one stream is that stream's
// unsynced last write; the merge keeps the acked prefix and Repair cleans
// the tail.
func TestShardedTornStreamTail(t *testing.T) {
	fs := vfs.NewMem(3)
	s, _ := OpenSharded(fs, "log", 2, 1, nil, ShardedOptions{})
	for i := 0; i < 4; i++ {
		s.Append([]byte(fmt.Sprintf("acked-%d", i)))
	}
	s.Close()

	// Seq 5 hashes to stream 1: hand-write a torn frame there.
	full := frame(5, []byte("this frame is torn in half"))
	f, _ := fs.Append("log.1")
	f.Write(full[:len(full)/2])
	f.Close()
	fs.CrashTorn(8)

	res, got := collectSharded(t, fs, "log", 1, ReplayOptions{Repair: true})
	if res.Entries != 4 || res.GapAt != 0 || !res.Truncated {
		t.Fatalf("%+v", res)
	}
	if got[3] != "acked-3" {
		t.Errorf("entries: %v", got)
	}
	s2, err := OpenSharded(fs, "log", 2, res.NextSeq, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if seq, err := s2.Append([]byte("next")); err != nil || seq != 5 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	s2.Close()
}

// TestShardedConcurrentAppenders is the -race stress of the ticket, the
// per-stream pending buffers, and the epoch barrier.
func TestShardedConcurrentAppenders(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 4, 1, nil, ShardedOptions{})
	var wg sync.WaitGroup
	const writers, each = 8, 50
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				seq, err := s.Append([]byte(fmt.Sprintf("w%d-%d", w, i)))
				if err != nil {
					t.Error(err)
					return
				}
				if d := s.DurableSeq(); d < seq {
					t.Errorf("acked %d above durable %d", seq, d)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s.Close()
	res, _ := collectSharded(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != writers*each || res.GapAt != 0 {
		t.Errorf("%+v", res)
	}
}

// TestShardedEpochBatching: concurrent appenders share epoch barriers, so
// the sync count stays well below the entry count — group commit, spanning
// streams.
func TestShardedEpochBatching(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) { testEpochBatching(t, shards) })
	}
}

func testEpochBatching(t *testing.T, shards int) {
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
	s, _ := OpenSharded(fs, "log", shards, 1, nil, ShardedOptions{})
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
				s.Append([]byte("payload"))
			}
		}()
	}
	wg.Wait()
	s.Close()
	mu.Lock()
	total := syncs - baseline
	mu.Unlock()
	if total >= writers*each/2 {
		t.Errorf("epoch barrier did not batch: %d syncs for %d entries", total, writers*each)
	}
}

// TestShardedOneStreamIsPlainLog: one stream is the paper's single log, not
// a special layout — the base file alone, dense sequences a plain Replay
// reads — and needs no syncer goroutine, since a seal with one participant
// flushes inline.
func TestShardedOneStreamIsPlainLog(t *testing.T) {
	fs := vfs.NewMem(1)
	before := runtime.NumGoroutine()
	s, err := OpenSharded(fs, "log", 1, 1, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("a one-stream log started %d goroutines", n-before)
	}
	for i := 0; i < 10; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if names, _ := fs.List(); len(names) != 1 || names[0] != "log" {
		t.Errorf("one-stream layout holds %v, want just the base file", names)
	}
	res, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 10 || string(got[9]) != "e9" {
		t.Errorf("plain replay of the one-stream layout: %+v", res)
	}
}

func TestShardedFlushDurable(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 3, 1, nil, ShardedOptions{})
	var waits []func() error
	for i := 0; i < 5; i++ {
		_, wait := s.AppendAsync([]byte(fmt.Sprintf("async-%d", i)))
		waits = append(waits, wait)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if d := s.DurableSeq(); d != 5 {
		t.Errorf("durable = %d, want 5", d)
	}
	for _, wait := range waits {
		if err := wait(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	fs.Crash()
	res, _ := collectSharded(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 5 {
		t.Errorf("flush not durable: %+v", res)
	}
}

func TestShardedSequentialSync(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 4, 1, nil, ShardedOptions{SequentialSync: true})
	for i := 0; i < 16; i++ {
		if _, err := s.Append([]byte(fmt.Sprintf("e%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	res, _ := collectSharded(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 16 || res.GapAt != 0 {
		t.Errorf("%+v", res)
	}
}

// TestShardedMirrorWindow drives a full mirror window across streams: the
// old streams stay the commit point throughout, and after the retarget the
// new base's streams hold every window entry — the checkpoint flip
// invariant, per stream.
func TestShardedMirrorWindow(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "old", 3, 1, nil, ShardedOptions{})
	for i := 0; i < 5; i++ { // seqs 1..5: before the window
		s.Append([]byte(fmt.Sprintf("pre-%d", i)))
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	if !s.MirrorActive() {
		t.Fatal("mirror not active")
	}
	files := make([]vfs.File, s.Shards())
	for i := range files {
		f, err := fs.Create(ShardName("new", i))
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	if err := s.AttachMirrorFiles(files); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ { // seqs 6..9: dual-written
		if _, err := s.Append([]byte(fmt.Sprintf("win-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SyncMirror(); err != nil {
		t.Fatal(err)
	}
	entries, err := s.FinishMirror("new")
	if err != nil {
		t.Fatal(err)
	}
	if entries != 4 {
		t.Errorf("window entries = %d, want 4", entries)
	}
	for i := 0; i < 2; i++ { // seqs 10..11: new streams only
		if _, err := s.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	res, got := collectSharded(t, fs, "old", 1, ReplayOptions{})
	if res.Entries != 9 || res.LastSeq != 9 {
		t.Fatalf("old streams: %+v", res)
	}
	if got[5] != "win-0" {
		t.Errorf("old entries: %v", got)
	}
	res2, got2 := collectSharded(t, fs, "new", 6, ReplayOptions{})
	if res2.Entries != 6 || res2.LastSeq != 11 || res2.GapAt != 0 {
		t.Fatalf("new streams: %+v", res2)
	}
	if got2[0] != "win-0" || got2[5] != "post-1" {
		t.Errorf("new entries: %v", got2)
	}
}

// TestSealWaitsForStreamFlushInFlight: a checkpoint's SyncMirror flushes a
// stream outside any seal, taking the stream's pending frames with it. A
// seal that runs meanwhile finds nothing pending on that stream — and must
// still not acknowledge those frames until the flush carrying them has
// synced.
func TestSealWaitsForStreamFlushInFlight(t *testing.T) {
	fs := vfs.NewMem(1)
	s, err := OpenSharded(fs, "old", 1, 1, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("new")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AttachMirrorFiles([]vfs.File{f}); err != nil {
		t.Fatal(err)
	}
	_, wait := s.AppendAsync([]byte("in the window"))

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fs.FailSync = func(string) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	mirrored := make(chan error, 1)
	go func() { mirrored <- s.SyncMirror() }()
	<-entered // SyncMirror's flush holds the frame; its sync is in flight

	acked := make(chan error, 1)
	go func() { acked <- wait() }()
	select {
	case err := <-acked:
		close(release)
		t.Fatalf("entry acknowledged (%v) while the flush carrying it is still syncing", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-acked; err != nil {
		t.Fatal(err)
	}
	if err := <-mirrored; err != nil {
		t.Fatal(err)
	}
	s.AbortMirror()
	s.Close()
}

// TestCloseIsTheLastSeal: a committer still waiting on the barrier when the
// log closes is acknowledged by the closing flush — not before it, and not
// by sealing against an already-closed stream.
func TestCloseIsTheLastSeal(t *testing.T) {
	fs := vfs.NewMem(1)
	s, err := OpenSharded(fs, "log", 1, 1, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, wait := s.AppendAsync([]byte("last"))

	entered, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	fs.FailSync = func(string) error {
		once.Do(func() {
			close(entered)
			<-release
		})
		return nil
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	<-entered

	acked := make(chan error, 1)
	go func() { acked <- wait() }()
	select {
	case err := <-acked:
		close(release)
		t.Fatalf("entry acknowledged (%v) while the closing flush is still syncing", err)
	case <-time.After(50 * time.Millisecond):
	}
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
	s, _ := OpenSharded(fs, "old", 2, 1, nil, ShardedOptions{})
	s.Append([]byte("a"))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.BeginMirror(); err != nil {
		t.Fatal(err)
	}
	s.AbortMirror()
	if s.MirrorActive() {
		t.Error("mirror still active after abort")
	}
	if _, err := s.Append([]byte("b")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	res, _ := collectSharded(t, fs, "old", 1, ReplayOptions{})
	if res.Entries != 2 {
		t.Errorf("%+v", res)
	}
}

func TestShardedClosed(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 2, 1, nil, ShardedOptions{})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Append([]byte("x")); err != ErrClosed {
		t.Errorf("append on closed: %v", err)
	}
	// Close was the last seal: there is nothing left to make durable.
	if err := s.Flush(); err != nil {
		t.Errorf("flush on closed: %v", err)
	}
	if err := s.Close(); err != nil { // double close is fine
		t.Errorf("double close: %v", err)
	}
}

func TestFirstSeqSharded(t *testing.T) {
	fs := vfs.NewMem(1)
	s, _ := OpenSharded(fs, "log", 3, 7, nil, ShardedOptions{})
	for i := 0; i < 4; i++ { // seqs 7..10 spread across streams
		s.Append([]byte("x"))
	}
	s.Close()
	seq, ok, err := FirstSeqSharded(fs, "log")
	if err != nil || !ok || seq != 7 {
		t.Errorf("got %d %v %v", seq, ok, err)
	}

	empty := vfs.NewMem(1)
	s2, _ := OpenSharded(empty, "log", 2, 1, nil, ShardedOptions{})
	s2.Close()
	if _, ok, err := FirstSeqSharded(empty, "log"); ok || err != nil {
		t.Errorf("empty: %v %v", ok, err)
	}
}

// TestShardedAppendAllocCeiling pins the sharded commit path's allocation
// count: the ticket, the per-stream in-place framing, and the epoch
// barrier add only the wait closure on top of the single-stream path.
func TestShardedAppendAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	fs := vfs.NewMem(1)
	s, err := OpenSharded(fs, "log", 4, 1, nil, ShardedOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 256)
	for i := 0; i < 32; i++ {
		if _, err := s.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Sharded.Append: %.1f allocs/op, want <= 4", allocs)
	}
}

// TestShardedStreamsShareHead: every stream of a log is opened under the
// base's head. A stream left empty by a crash inside its creation gets that
// head before it takes an entry; a stream holding another head makes Head
// report none, so a writer cannot pickle against a table some stream lacks.
func TestShardedStreamsShareHead(t *testing.T) {
	fs := vfs.NewMem(1)
	s, err := OpenSharded(fs, "log", 3, 1, []byte("h"), ShardedOptions{})
	if err != nil || string(s.Head()) != "h" {
		t.Fatalf("fresh log: head %q: %v", s.Head(), err)
	}
	s.Close()
	if err := vfs.WriteFile(fs, "log.1", nil); err != nil {
		t.Fatal(err)
	}
	s, err = OpenSharded(fs, "log", 3, 1, []byte("this process's"), ShardedOptions{})
	if err != nil || string(s.Head()) != "h" {
		t.Fatalf("emptied stream: head %q: %v", s.Head(), err)
	}
	s.Close()
	if head, err := ReadHead(fs, "log.1"); err != nil || string(head) != "h" {
		t.Fatalf("emptied stream re-headed with %q: %v", head, err)
	}
	if err := vfs.WriteFile(fs, "log.2", HeadFrame([]byte("x"))); err != nil {
		t.Fatal(err)
	}
	s, err = OpenSharded(fs, "log", 3, 1, []byte("h"), ShardedOptions{})
	if err != nil || s.Head() != nil {
		t.Fatalf("streams with different heads: head %q: %v", s.Head(), err)
	}
	s.Close()
}
