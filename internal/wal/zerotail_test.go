package wal

import (
	"bytes"
	"fmt"
	"testing"

	"smalldb/internal/obs"
	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// TestFlushAllocatesAhead: a flush that passes the file's end grows the file
// to the next allocChunk boundary with zeros, in the flush's own write; a
// flush inside the allocated zeros leaves the length alone. Either way a
// flush is one write and one sync, and the zeros replay as the log's clean
// end.
func TestFlushAllocatesAhead(t *testing.T) {
	ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never, TraceCap: 8})
	reg := obs.NewRegistry()
	l, err := Create(ffs, "log", 1, Options{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 1000)
	alloc, extends := int64(0), uint64(0)
	for i := 0; alloc < 3*allocChunk; i++ {
		ops := ffs.OpCount()
		if _, err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
		trace := ffs.Trace()
		if got := ffs.OpCount() - ops; got != 2 || trace[len(trace)-2].Op != faultfs.OpWrite || trace[len(trace)-1].Op != faultfs.OpSync {
			t.Fatalf("append %d: %d ops ending %v, want one write and one sync", i, got, trace[len(trace)-2:])
		}
		size, _ := ffs.Stat("log")
		switch end := l.Size(); {
		case end <= alloc && size != alloc:
			t.Fatalf("append %d inside the zeros: length %d, want %d", i, size, alloc)
		case end > alloc:
			if size%allocChunk != 0 || size < end || size-end >= allocChunk {
				t.Fatalf("append %d past the end %d: length %d, want the boundary after %d", i, alloc, size, end)
			}
			alloc = size
			extends++
		}
		if got := reg.Counter("wal_extends").Value(); got != extends {
			t.Fatalf("append %d: wal_extends = %d, want %d", i, got, extends)
		}
	}
	if extends != 3 {
		t.Errorf("%d extensions for three chunks of frames", extends)
	}
	end := l.Size()
	l.Close()
	if res, _ := collect(t, ffs, "log", 1, ReplayOptions{}); res.Truncated || res.GoodSize != end || res.LastSeq != uint64(end)/uint64(len(frame(1, payload))) {
		t.Errorf("replay of a log ending in zeros: %+v, want every frame up to %d", res, end)
	}
}

// TestStaleFramePastZeroGap pins the two invariants that keep a zero tail
// from hiding a torn flush. A flush that persisted a later page and not an
// earlier one leaves zeros with a frame behind them: replay reads that as a
// torn tail, not a clean end, and Repair cuts it. And a log appends after
// its last intact frame: Open refuses a replay that found a torn tail the
// file still holds, and a repaired log appended to past the stale frame's
// offset never replays the stale frame.
func TestStaleFramePastZeroGap(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	commit(t, l, "one")
	commit(t, l, "two")
	end := l.Size()
	l.Close()
	lost := frame(3, bytes.Repeat([]byte("3"), 700)) // its pages never landed
	stale := end + int64(len(lost))
	f, _ := fs.OpenRW("log")
	if _, err := f.WriteAt(frame(4, []byte("stale")), stale); err != nil {
		t.Fatal(err)
	}
	f.Sync()
	f.Close()

	unrepaired, _ := collect(t, fs, "log", 1, ReplayOptions{})
	if !unrepaired.Truncated || unrepaired.Entries != 2 || unrepaired.GoodSize != end {
		t.Fatalf("zeros with a frame behind them: %+v, want a torn tail at %d", unrepaired, end)
	}
	if _, err := Open(fs, "log", unrepaired, Options{}); err == nil {
		t.Fatal("Open appended in front of a torn tail it had not cut")
	}
	res, _ := collect(t, fs, "log", 1, ReplayOptions{Repair: true})
	if size, _ := fs.Stat("log"); size != end || res.NextSeq != 3 {
		t.Fatalf("repaired to %d bytes, next seq %d; want %d and 3", size, res.NextSeq, end)
	}
	l2, err := Open(fs, "log", res, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for i := 0; l2.Size() <= stale; i++ {
		want = append(want, fmt.Sprintf("fresh-%d", i))
		commit(t, l2, want[len(want)-1])
	}
	l2.Close()
	res, got := strs(t, fs, "log", 1, ReplayOptions{})
	if res.Truncated || res.Entries != 2+len(want) {
		t.Fatalf("after appending past the stale frame: %+v", res)
	}
	for i, w := range want {
		if got[2+i] != w {
			t.Fatalf("entry %d = %q, want %q", 3+i, got[2+i], w)
		}
	}
}

// TestTornFlushIntoZeros: a flush spanning several pages of allocated zeros,
// torn by a crash that persists any subset of its pages, recovers an intact
// prefix of it — never a later frame without an earlier one — and the log
// then takes the next sequence.
func TestTornFlushIntoZeros(t *testing.T) {
	const entries = 8
	prefixes := map[int]bool{}
	for seed := int64(0); seed < 64; seed++ {
		fs := vfs.NewMem(seed)
		l, _ := Create(fs, "log", 1, Options{})
		commit(t, l, "synced")
		l.Close()
		res, _ := collect(t, fs, "log", 1, ReplayOptions{})
		l, err := Open(fs, "log", res, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entries; i++ {
			l.AppendAsync([]byte(fmt.Sprintf("%d:%s", i, bytes.Repeat([]byte("x"), 300))))
		}
		l.Flush() // one write of ~2.5 KiB into the zeros, never synced
		fs.CrashTorn(512)

		res, got := strs(t, fs, "log", 1, ReplayOptions{Repair: true})
		for i, p := range got[1:] {
			if p[:2] != fmt.Sprintf("%d:", i) {
				t.Fatalf("seed %d: entry %d holds %q", seed, i+2, p[:2])
			}
		}
		prefixes[res.Entries-1] = true
		l, err = Open(fs, "log", res, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seq := commit(t, l, "next"); seq != res.NextSeq {
			t.Fatalf("seed %d: the append after recovery took seq %d, want %d", seed, seq, res.NextSeq)
		}
		l.Close()
		if res2, got := strs(t, fs, "log", 1, ReplayOptions{}); res2.Entries != res.Entries+1 || got[len(got)-1] != "next" {
			t.Fatalf("seed %d: after the append: %+v", seed, res2)
		}
	}
	if !prefixes[0] || len(prefixes) < 3 {
		t.Errorf("recovered prefixes %v: the crashes tore too little", prefixes)
	}
}

// TestOpenReadsNoFrame: restart reads the log once. Open takes the end of
// the frames, the sequence and the head from the replay, and reads nothing
// of the file itself.
func TestOpenReadsNoFrame(t *testing.T) {
	m := vfs.NewMetered(vfs.NewMem(1), vfs.Profile{}, 0)
	l, _ := Open(m, "log", ReplayResult{NextSeq: 1}, Options{Head: []byte("head")})
	commit(t, l, "a")
	l.Close()
	res, _ := collect(t, m, "log", 1, ReplayOptions{Repair: true})
	m.ResetStats()
	l, err := Open(m, "log", res, Options{Head: []byte("head")})
	if err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.BytesRead != 0 || string(l.Head()) != "head" {
		t.Errorf("Open read %d bytes; head %q", st.BytesRead, l.Head())
	}
	commit(t, l, "b")
	l.Close()
	if res, got := strs(t, m, "log", 1, ReplayOptions{}); res.Entries != 2 || got[1] != "b" {
		t.Errorf("after reopen: %+v %v", res, got)
	}
}

// TestFailedFlushIntoZerosUnread: a flush into allocated zeros whose sync
// fails wrote bytes no crash is bound to keep. A reopen must not replay
// them as committed, or a later crash would take back an entry the reopen
// served: the failed region reads as a torn tail, as an appended one does.
func TestFailedFlushIntoZerosUnread(t *testing.T) {
	fs := vfs.NewMem(1)
	l, _ := Create(fs, "log", 1, Options{})
	commit(t, l, "durable")
	boom := fmt.Errorf("disk gone")
	fs.FailSync = func(string) error { return boom }
	if _, err := l.Append([]byte("never synced")); err == nil {
		t.Fatal("append with a failing sync succeeded")
	}
	fs.FailSync = nil
	l.Close()
	res, got := strs(t, fs, "log", 1, ReplayOptions{Repair: true})
	if res.Entries != 1 || !res.Truncated || got[0] != "durable" {
		t.Fatalf("reopen after the failed flush: %+v %v", res, got)
	}
	fs.Crash()
	if res, _ := strs(t, fs, "log", 1, ReplayOptions{}); res.Entries != 1 {
		t.Fatalf("after a crash: %+v", res)
	}
}
