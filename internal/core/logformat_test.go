package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

var updateCorpus = flag.Bool("update-corpus", false, "rewrite testdata/fuzz/FuzzLogReplay from logSeeds")

// walFrame is one log frame as package wal writes it; sequence 0 is a head.
func walFrame(seq uint64, payload []byte) []byte {
	b := binary.AppendUvarint(nil, seq)
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(b, payload...)
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)))
}

func cat(parts ...[]byte) []byte { return bytes.Join(parts, nil) }

// tableCounts reads how many names and struct definitions a table holds:
// the first id past each.
func tableCounts(tab *pickle.Table) (names, structs uint64) {
	raw := tab.Bytes()
	names, off := binary.Uvarint(raw)
	for i := uint64(0); i < names; i++ {
		l, k := binary.Uvarint(raw[off:])
		off += k + int(l)
	}
	structs, _ = binary.Uvarint(raw[off:])
	return names, structs
}

// logSeed is one log file and what replaying it gives: an error containing
// wantErr, or the updates whose keys are wantKeys.
type logSeed struct {
	name     string
	file     []byte
	wantErr  string
	wantKeys string
}

// logSeeds builds the corpus around this process's own head table. A
// table-relative entry spells the record as tPtr, its id, tStruct and the
// logRecord's table id (bytes 3-6 after the three-byte stream header), then
// tIfaceID (0x14) and the update's name id.
func logSeeds() []logSeed {
	own := logTable()
	head := walFrame(0, own.Bytes())
	compact := func(k string) []byte {
		b, err := own.AppendMarshal(nil, &logRecord{U: &putKV{Key: k, Value: "v"}})
		if err != nil || !pickle.IsTableRelative(b) {
			panic(fmt.Sprintf("compact entry: %x %v", b, err))
		}
		return b
	}
	classic := func(v any) []byte {
		b, err := pickle.Marshal(v)
		if err != nil {
			panic(err)
		}
		return b
	}
	names, structs := tableCounts(own)
	ifacePast := compact("k")
	ifacePast[bytes.IndexByte(ifacePast[3:], 0x14)+4] = byte(names)
	inline := compact("k")
	inline = cat(inline[:6], binary.AppendUvarint(nil, structs), []byte("\x0ecore.logRecord\x01\x01U"), inline[7:])
	// A map claiming 2^26 entries where the stream holds one.
	bigMap := classic(&struct{ U any }{&kvRoot{Data: map[string]string{"a": "b"}}})
	if bytes.Count(bigMap, []byte{0x0e, 0x02, 0x01}) != 1 {
		panic(fmt.Sprintf("map-claims-64M: no unique tMap in %x", bigMap))
	}
	bigMap = bytes.Replace(bigMap, []byte{0x0e, 0x02, 0x01}, []byte{0x0e, 0x02, 0x80, 0x80, 0x80, 0x20}, 1)
	return []logSeed{
		{name: "head-only", file: head},
		{name: "torn-head", file: head[:len(head)-3]},
		{name: "compact", file: cat(head, walFrame(1, compact("k1")), walFrame(2, compact("k2"))), wantKeys: "k1,k2"},
		{name: "classic-after-head", file: cat(head, walFrame(1, classic(&logRecord{U: &putKV{Key: "k1"}})), walFrame(2, compact("k2"))), wantKeys: "k1,k2"},
		{name: "no-head", file: walFrame(1, classic(&logRecord{U: &delKV{Key: "k1"}})), wantKeys: "k1"},
		{name: "iface-id-past-table", file: cat(head, walFrame(1, ifacePast)), wantErr: "not in the stream's type table"},
		{name: "inline-typedef", file: cat(head, walFrame(1, inline)), wantErr: "not in the stream's type table"},
		{name: "compact-without-head", file: walFrame(1, compact("k1")), wantErr: "which this reader lacks"},
		{name: "duplicate-head", file: cat(head, head, walFrame(1, compact("k1"))), wantErr: "sequence 0, want >= 1"},
		{name: "head-at-offset", file: cat(walFrame(1, classic(&logRecord{U: &putKV{Key: "k1"}})), head), wantErr: "sequence 0, want 2"},
		{name: "map-claims-64M", file: cat(head, walFrame(1, bigMap)), wantErr: "exceeds the"},
		{name: "not-a-log", file: []byte("logfile"), wantKeys: ""},
	}
}

// replayLog replays data as a log file through the store's decode and
// requires a typed error — one the log or the store attributes — or updates;
// nothing panics.
func replayLog(t *testing.T, data []byte) ([]Update, error) {
	t.Helper()
	fs := vfs.NewMem(1)
	if err := vfs.WriteFile(fs, "logfile1", data); err != nil {
		t.Fatal(err)
	}
	var us []Update
	_, err := replayUpdates(fs, "logfile1", 0, wal.ReplayOptions{SkipDamaged: true, Repair: true},
		func(_ uint64, u Update) error { us = append(us, u); return nil })
	if err != nil && !strings.HasPrefix(err.Error(), "wal: ") && !strings.HasPrefix(err.Error(), "core: ") {
		t.Fatalf("replay failed with an unattributed error: %T %v", err, err)
	}
	return us, err
}

func updateKeys(us []Update) string {
	var keys []string
	for _, u := range us {
		switch u := u.(type) {
		case *putKV:
			keys = append(keys, u.Key)
		case *delKV:
			keys = append(keys, u.Key)
		default:
			keys = append(keys, fmt.Sprintf("%T", u))
		}
	}
	return strings.Join(keys, ",")
}

func TestLogReplaySeeds(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzLogReplay")
	for _, s := range logSeeds() {
		t.Run(s.name, func(t *testing.T) {
			entry := []byte("go test fuzz v1\n[]byte(" + strconv.Quote(string(s.file)) + ")\n")
			if *updateCorpus {
				if err := os.MkdirAll(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, s.name), entry, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if on, err := os.ReadFile(filepath.Join(dir, s.name)); err != nil || !bytes.Equal(on, entry) {
				t.Errorf("committed corpus entry is not this seed (rerun with -update-corpus): %v", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			us, err := replayLog(t, s.file)
			runtime.ReadMemStats(&after)
			// However much a stream claims, replay allocates in proportion
			// to the bytes it holds.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
				t.Errorf("replaying %d bytes allocated %d", len(s.file), grew)
			}
			if s.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), s.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, s.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := updateKeys(us); got != s.wantKeys {
				t.Fatalf("replayed %q, want %q", got, s.wantKeys)
			}
		})
	}
}

// FuzzLogReplay: no byte string, as a log file, makes replay panic or fail
// without an attributed error.
func FuzzLogReplay(f *testing.F) {
	for _, s := range logSeeds() {
		f.Add(s.file)
	}
	f.Fuzz(func(t *testing.T, data []byte) { replayLog(t, data) })
}

// compactLog writes n updates k0..k<n-1> to a fresh store and closes it,
// returning the file offset each entry starts at.
func compactLog(t *testing.T, fs *vfs.Mem, n int) []int64 {
	t.Helper()
	s := openKV(t, fs, func(c *Config) { c.Retain = 0 })
	offs := make([]int64, n)
	for i := range offs {
		offs[i], _ = fs.Stat(checkpoint.LogName(1))
		put(t, s, fmt.Sprintf("k%d", i), "v")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	res, err := wal.Replay(fs, checkpoint.LogName(1), 1, wal.ReplayOptions{}, func(seq uint64, p []byte) error {
		if !pickle.IsTableRelative(p) {
			t.Errorf("entry %d is self-describing in a log with a head", seq)
		}
		return nil
	})
	if err != nil || res.Entries != n || res.Head == nil {
		t.Fatalf("replayed %d entries, head %d bytes: %v", res.Entries, len(res.Head), err)
	}
	return offs
}

// TestSkipDamagedCompactLog: §4's hop over a damaged entry still loses
// exactly that entry when every entry depends on the head — damaged in
// turn, each of 50 is the one lost and reported (the last as a torn tail,
// which no intact entry follows).
func TestSkipDamagedCompactLog(t *testing.T) {
	const n = 50
	base := vfs.NewMem(1)
	offs := compactLog(t, base, n)
	for i := range n {
		fs := base.CloneSynced()
		fs.Damage(checkpoint.LogName(1), offs[i]+4, 2)
		s := openKV(t, fs, func(c *Config) { c.SkipDamagedLogEntries = true })
		st := s.Stats()
		if reported := st.RestartSkippedDamaged == 1 || i == n-1 && st.RestartTornTail; !reported || st.RestartEntries != n-1 {
			t.Errorf("entry %d damaged: %d replayed, %d reported damaged, torn tail %v", i, st.RestartEntries, st.RestartSkippedDamaged, st.RestartTornTail)
		}
		for j := range n {
			if _, ok := get(t, s, fmt.Sprintf("k%d", j)); ok == (i == j) {
				t.Errorf("entry %d damaged: k%d present = %v", i, j, ok)
			}
		}
		s.Close()
	}
}

// TestDamagedHeadRefused: every entry depends on the head, so an unreadable
// head with entries behind it fails Open with a typed error naming the file.
// Retained versions do not change that: the fallback replays the current log
// too, since entries committed after its checkpoint exist nowhere else.
func TestDamagedHeadRefused(t *testing.T) {
	for _, retain := range []int{0, 1} {
		fs := vfs.NewMem(1)
		s := openKV(t, fs, func(c *Config) { c.Retain = retain })
		put(t, s, "a", "1")
		if err := s.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		put(t, s, "b", "2")
		s.Close()
		fs.Damage(checkpoint.LogName(2), 4, 2)
		_, err := Open(Config{FS: fs, NewRoot: newKV, Retain: retain})
		if !errors.Is(err, vfs.ErrDamaged) || !strings.Contains(err.Error(), "wal: logfile2: head frame") {
			t.Errorf("Retain=%d: Open over a damaged head: %v", retain, err)
		}
	}
}

// TestTornHeadReopensEmpty: a crash inside the log file's creation leaves
// part of its head and no entry; recovery discards it as a torn tail, and the
// now empty file is given its head again before it takes compact entries.
func TestTornHeadReopensEmpty(t *testing.T) {
	fs := vfs.NewMem(1)
	openKV(t, fs).Close()
	head, err := vfs.ReadFile(fs, checkpoint.LogName(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := vfs.WriteFile(fs, checkpoint.LogName(1), head[:len(head)/2]); err != nil {
		t.Fatal(err)
	}
	s := openKV(t, fs)
	if st := s.Stats(); !st.RestartTornTail || st.RestartEntries != 0 {
		t.Fatalf("torn head: torn tail %v, %d entries", st.RestartTornTail, st.RestartEntries)
	}
	put(t, s, "a", "1")
	s.Close()
	res, err := wal.Replay(fs, checkpoint.LogName(1), 1, wal.ReplayOptions{}, func(_ uint64, p []byte) error {
		if !pickle.IsTableRelative(p) {
			t.Error("the re-headed file took a self-describing entry")
		}
		return nil
	})
	if err != nil || !bytes.Equal(res.Head, logTable().Bytes()) || res.Entries != 1 {
		t.Fatalf("after a torn head: %d entries, head %q: %v", res.Entries, res.Head, err)
	}
	s = openKV(t, fs)
	defer s.Close()
	if v, ok := get(t, s, "a"); !ok || v != "1" {
		t.Fatalf("after a torn head: a = %q, %v", v, ok)
	}
}

// TestEmptiedStreamTakesBaseHead: a crash between the creation and the sync
// of a log file can leave it empty. Reopened, the store gives it this
// process's head before pickling entries against that head's table, so the
// file decodes by its own head alone.
func TestEmptiedStreamTakesBaseHead(t *testing.T) {
	fs := vfs.NewMem(1)
	openKV(t, fs).Close()
	name := checkpoint.LogName(1)
	if err := vfs.WriteFile(fs, name, nil); err != nil {
		t.Fatal(err)
	}
	s := openKV(t, fs)
	for i := 0; i < 4; i++ {
		put(t, s, fmt.Sprint("k", i), "v")
	}
	s.Close()
	head, err := wal.ReadHead(fs, name)
	if err != nil || !bytes.Equal(head, logTable().Bytes()) {
		t.Fatalf("%s head %d bytes: %v", name, len(head), err)
	}
	var keys []string
	if _, err := replayUpdates(fs, name, 1, wal.ReplayOptions{}, func(_ uint64, u Update) error {
		keys = append(keys, u.(*putKV).Key)
		return nil
	}); err != nil || strings.Join(keys, ",") != "k0,k1,k2,k3" {
		t.Fatalf("%s replays %v: %v", name, keys, err)
	}
	s = openKV(t, fs)
	if got := s.AppliedSeq(); got != 4 {
		t.Fatalf("reopened at seq %d", got)
	}
	s.Close()
}
