package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"smalldb/internal/vfs"
)

func collect(t *testing.T, fs vfs.FS, name string, firstSeq uint64, opts ReplayOptions) (ReplayResult, [][]byte) {
	t.Helper()
	var got [][]byte
	res, err := Replay(fs, name, firstSeq, opts, func(seq uint64, p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return res, got
}

func TestAppendReplay(t *testing.T) {
	fs := vfs.NewMem(1)
	l, err := Create(fs, "log", 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		seq, err := l.Append([]byte(fmt.Sprintf("entry-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if seq != uint64(i+1) {
			t.Errorf("seq = %d, want %d", seq, i+1)
		}
	}
	l.Close()

	res, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 10 || res.LastSeq != 10 || res.NextSeq != 11 || res.Truncated {
		t.Errorf("result: %+v", res)
	}
	for i, p := range got {
		if string(p) != fmt.Sprintf("entry-%d", i) {
			t.Errorf("entry %d = %q", i, p)
		}
	}
}

func TestEmptyLog(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	l.Close()
	res, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 0 || len(got) != 0 || res.NextSeq != 1 {
		t.Errorf("result: %+v", res)
	}
}

func TestEmptyPayload(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	if _, err := l.Append(nil); err != nil {
		t.Fatal(err)
	}
	l.Close()
	res, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 1 || len(got) != 1 || len(got[0]) != 0 {
		t.Errorf("result: %+v %v", res, got)
	}
}

func TestFirstSeqZeroRejected(t *testing.T) {
	fs := vfs.NewMem(1)
	if _, err := Create(fs, "log", 0, Options{}); err == nil {
		t.Error("Create with firstSeq 0 succeeded")
	}
	if _, err := Open(fs, "log", 0, Options{}); err == nil {
		t.Error("Open with nextSeq 0 succeeded")
	}
}

func TestReopenAppend(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	l.Close()

	res, _ := collect(t, fs, "log", 1, ReplayOptions{})
	l2, err := Open(fs, "log", res.NextSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := l2.Append([]byte("c"))
	if err != nil || seq != 3 {
		t.Fatalf("seq=%d err=%v", seq, err)
	}
	l2.Close()

	res, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 3 || string(got[2]) != "c" {
		t.Errorf("after reopen: %+v %q", res, got)
	}
}

func TestCommitPointSemantics(t *testing.T) {
	// An entry whose Append returned is durable across a crash; an entry
	// being written when the crash happens is either fully present or
	// discarded by replay — never half-applied. This is the paper's §4
	// transient-failure guarantee.
	fs := vfs.NewMem(42)
	l, _ := Create(fs, "log", 1, Options{})
	l.Append([]byte("committed-1"))
	l.Append([]byte("committed-2"))
	l.Close()
	fs.Crash()

	res, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 2 {
		t.Fatalf("committed entries lost: %+v", res)
	}
	if string(got[0]) != "committed-1" || string(got[1]) != "committed-2" {
		t.Errorf("entries: %q", got)
	}
}

func TestTornTailDiscarded(t *testing.T) {
	// Simulate a crash mid-write by appending a full entry, then writing
	// a partial frame directly and crashing with a torn sync.
	for seed := int64(0); seed < 30; seed++ {
		fs := vfs.NewMem(seed)
		l, _ := Create(fs, "log", 1, Options{})
		l.Append([]byte("good"))
		l.Close()

		// Hand-write a torn entry: a valid frame cut short.
		full := frame(2, []byte("this entry will be torn in half"))
		f, _ := fs.Append("log")
		f.Write(full[:len(full)/2])
		f.Close() // never synced
		fs.CrashTorn(8)

		var got [][]byte
		res, err := Replay(fs, "log", 1, ReplayOptions{}, func(seq uint64, p []byte) error {
			got = append(got, p)
			return nil
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Entries != 1 || string(got[0]) != "good" {
			t.Fatalf("seed %d: %+v %q", seed, res, got)
		}
	}
}

func TestRepairTruncates(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	l.Append([]byte("keep"))
	l.Close()
	f, _ := fs.Append("log")
	f.Write([]byte{0x01, 0x02, 0x03}) // garbage tail
	f.Sync()
	f.Close()

	res, err := Replay(fs, "log", 1, ReplayOptions{Repair: true}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("garbage tail not detected")
	}
	size, _ := fs.Stat("log")
	if size != res.GoodSize {
		t.Errorf("file not repaired: size %d, good %d", size, res.GoodSize)
	}
	// After repair, appending from NextSeq and replaying is clean.
	l2, err := Open(fs, "log", res.NextSeq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Append([]byte("new"))
	l2.Close()
	res2, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res2.Entries != 2 || res2.Truncated || string(got[1]) != "new" {
		t.Errorf("after repair: %+v %q", res2, got)
	}
}

func TestSkipDamagedEntry(t *testing.T) {
	// Hard failure in the middle of the log: with SkipDamaged, replay
	// hops over the unreadable entry and delivers the rest — §4's
	// "ignoring just the damaged log entry".
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	l.Append([]byte("first"))
	start := l.Size()
	l.Append([]byte("the-damaged-one"))
	end := l.Size()
	l.Append([]byte("third"))
	l.Close()

	// Damage the middle entry's payload (a few bytes past its header).
	fs.Damage("log", start+6, 4)

	// Without SkipDamaged: replay fails.
	if _, err := Replay(fs, "log", 1, ReplayOptions{}, func(uint64, []byte) error { return nil }); err == nil {
		t.Error("expected error replaying damaged log without SkipDamaged")
	}

	res, got := collect(t, fs, "log", 1, ReplayOptions{SkipDamaged: true})
	if res.Entries != 2 || res.Damaged != 1 {
		t.Fatalf("result: %+v", res)
	}
	if string(got[0]) != "first" || string(got[1]) != "third" {
		t.Errorf("entries: %q", got)
	}
	_ = end
}

func TestSequenceDiscontinuityDetected(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 5, Options{})
	l.Append([]byte("x"))
	l.Close()
	// Replaying expecting seq 1 finds seq 5: a mismatched log.
	if _, err := Replay(fs, "log", 1, ReplayOptions{}, func(uint64, []byte) error { return nil }); err == nil {
		t.Error("sequence discontinuity not detected")
	}
}

// TestReplayFromAnySeq: firstSeq 0 takes the first entry's sequence, then
// checks density from there; sequence 0 is never an entry's.
func TestReplayFromAnySeq(t *testing.T) {
	fs := vfs.NewMem(1)
	vfs.WriteFile(fs, "log", append(frame(5, []byte("a")), frame(6, []byte("b"))...))
	if res, _ := collect(t, fs, "log", 0, ReplayOptions{}); res.Entries != 2 || res.NextSeq != 7 {
		t.Errorf("from 0: %+v", res)
	}
	vfs.WriteFile(fs, "gap", append(frame(5, []byte("a")), frame(7, []byte("b"))...))
	if _, err := Replay(fs, "gap", 0, ReplayOptions{}, func(uint64, []byte) error { return nil }); err == nil {
		t.Error("gap after the first entry not detected")
	}
	vfs.WriteFile(fs, "heads", append(HeadFrame([]byte("h")), HeadFrame([]byte("h"))...))
	if _, err := Replay(fs, "heads", 0, ReplayOptions{}, func(uint64, []byte) error { return nil }); err == nil {
		t.Error("a second head frame replayed as an entry")
	}
}

func TestReplayCallbackError(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	l.Append([]byte("a"))
	l.Append([]byte("b"))
	l.Close()
	boom := errors.New("boom")
	_, err := Replay(fs, "log", 1, ReplayOptions{}, func(uint64, []byte) error { return boom })
	if !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
}

func TestPoisonedLog(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	fail := errors.New("disk full")
	fs.FailSync = func(string) error { return fail }
	if _, err := l.Append([]byte("x")); !errors.Is(err, fail) {
		t.Fatalf("got %v", err)
	}
	fs.FailSync = nil
	// The log is poisoned: subsequent appends fail too.
	if _, err := l.Append([]byte("y")); err == nil {
		t.Error("append succeeded on poisoned log")
	}
	l.Close()
}

func TestConcurrentAppendsNoGroup(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	var wg sync.WaitGroup
	const writers, each = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	res, _ := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != writers*each {
		t.Errorf("entries = %d, want %d", res.Entries, writers*each)
	}
}

func TestConcurrentAppendsGroupCommit(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	var wg sync.WaitGroup
	const writers, each = 8, 25
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	res, _ := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != writers*each {
		t.Errorf("entries = %d, want %d", res.Entries, writers*each)
	}
}

func TestGroupCommitSharesSyncs(t *testing.T) {
	// With group commit and many concurrent writers, the number of syncs
	// must be well below the number of entries.
	// A sync must be slow for batching to have a window; an instant
	// in-memory sync lets every appender lead its own commit.
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
				l.Append([]byte("payload"))
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

func TestClosedLog(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("got %v", err)
	}
	if err := l.Close(); err != nil { // double close is fine
		t.Errorf("double close: %v", err)
	}
}

func TestFirstSeq(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 7, Options{})
	l.Append([]byte("x"))
	l.Close()
	seq, ok, err := FirstSeq(fs, "log")
	if err != nil || !ok || seq != 7 {
		t.Errorf("got %d %v %v", seq, ok, err)
	}

	// Empty log.
	l2, _ := Create(fs, "empty", 1, Options{})
	l2.Close()
	if _, ok, err := FirstSeq(fs, "empty"); ok || err != nil {
		t.Errorf("empty: %v %v", ok, err)
	}

	// Missing file.
	if _, _, err := FirstSeq(fs, "missing"); err == nil {
		t.Error("missing file: no error")
	}

	// Garbage-only file.
	vfs.WriteFile(fs, "junk", []byte{0xFF, 0xFE})
	if _, ok, err := FirstSeq(fs, "junk"); ok || err != nil {
		t.Errorf("junk: %v %v", ok, err)
	}
}

func TestFlush(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	// Enqueue without waiting, as the store's commit does.
	l.AppendAsync([]byte("async"))
	if err := l.Flush(); err != nil {
		t.Fatal(err)
	}
	// After Flush the entry is durable across a crash.
	l.Close()
	fs.Crash()
	res, got := collect(t, fs, "log", 1, ReplayOptions{})
	if res.Entries != 1 || string(got[0]) != "async" {
		t.Errorf("flush not durable: %+v %q", res, got)
	}
}

// TestFlushOnClosed: Flush on a closed log reports what Close left — nil
// when Close made everything durable, the poison when a write had failed.
func TestFlushOnClosed(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	l.AppendAsync([]byte("x"))
	l.Close()
	if err := l.Flush(); err != nil {
		t.Errorf("healthy: got %v", err)
	}

	fail := errors.New("disk full")
	l, _ = Create(fs, "log2", 1, Options{})
	fs.FailSync = func(string) error { return fail }
	_, wait := l.AppendAsync([]byte("x"))
	wait()
	fs.FailSync = nil
	l.Close()
	if err := l.Flush(); !errors.Is(err, fail) {
		t.Errorf("poisoned: got %v", err)
	}
}

// Property: any sequence of payloads replays intact, in order, regardless
// of payload content (binary, empty, long).
func TestQuickRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		fs := vfs.NewMem(7)
		l, err := Create(fs, "log", 1, Options{})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if _, err := l.Append(p); err != nil {
				return false
			}
		}
		l.Close()
		i := 0
		res, err := Replay(fs, "log", 1, ReplayOptions{}, func(seq uint64, p []byte) error {
			if string(p) != string(payloads[i]) {
				return fmt.Errorf("entry %d mismatch", i)
			}
			i++
			return nil
		})
		return err == nil && res.Entries == len(payloads) && !res.Truncated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: truncating the log file at any byte boundary yields a replay of
// some prefix of the committed entries, never garbage, never an error.
func TestQuickPrefixAfterTruncation(t *testing.T) {
	fs := vfs.NewMem(7)
	l, _ := Create(fs, "log", 1, Options{})
	var sizes []int64
	for i := 0; i < 20; i++ {
		l.Append([]byte(fmt.Sprintf("entry-number-%d", i)))
		sizes = append(sizes, l.Size())
	}
	l.Close()
	full, _ := vfs.ReadFile(fs, "log")

	for cut := 0; cut <= len(full); cut++ {
		cutFS := vfs.NewMem(7)
		vfs.WriteFile(cutFS, "log", full[:cut])
		n := 0
		res, err := Replay(cutFS, "log", 1, ReplayOptions{}, func(seq uint64, p []byte) error {
			if want := fmt.Sprintf("entry-number-%d", n); string(p) != want {
				return fmt.Errorf("at cut %d entry %d = %q", cut, n, p)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		// The replayed prefix must be exactly the entries wholly
		// inside the cut.
		want := 0
		for _, s := range sizes {
			if s <= int64(cut) {
				want++
			}
		}
		if res.Entries != want {
			t.Fatalf("cut %d: replayed %d entries, want %d", cut, res.Entries, want)
		}
	}
}
