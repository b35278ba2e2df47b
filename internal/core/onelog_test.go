package core

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/vfs"
)

// The tests in this file pin the store's one log file per version. Those
// named after sharded logs and streams check the single-log rule each of
// those reduces to.

// logFiles lists the directory's log files, current and archived.
func logFiles(t *testing.T, fs vfs.FS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var logs []string
	for _, n := range names {
		if strings.Contains(n, "logfile") {
			logs = append(logs, n)
		}
	}
	return logs
}

// TestShardedStoreRoundTrip: a version's log is the one file logfileN — the
// store writes nothing beside it — and a restart recovers every committed
// update from it.
func TestShardedStoreRoundTrip(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	for i := 0; i < 40; i++ {
		put(t, s, fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if logs := logFiles(t, fs); !reflect.DeepEqual(logs, []string{"logfile1"}) {
		t.Fatalf("log files %v, want logfile1 alone", logs)
	}
	s2 := openKV(t, fs)
	defer s2.Close()
	for i := 0; i < 40; i++ {
		if v, ok := get(t, s2, fmt.Sprintf("k%d", i)); !ok || v != fmt.Sprintf("v%d", i) {
			t.Fatalf("k%d = %q, %v after restart", i, v, ok)
		}
	}
}

// TestShardedMatchesSingleStream: a seeded workload of puts and deletes
// restarts to exactly the root it closed with.
func TestShardedMatchesSingleStream(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	for i := 0; i < 200; i++ {
		put(t, s, fmt.Sprintf("k%d", i%50), fmt.Sprintf("v%d", i))
		if i%70 == 69 {
			if err := s.Apply(&delKV{Key: fmt.Sprintf("k%d", i%50)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	root := func(s *Store) map[string]string {
		out := map[string]string{}
		if err := s.View(func(root any) error {
			for k, v := range root.(*kvRoot).Data {
				out[k] = v
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := root(s)
	s.Close()
	s2 := openKV(t, fs)
	defer s2.Close()
	if after := root(s2); !reflect.DeepEqual(before, after) {
		t.Fatalf("restart state diverged:\nbefore: %v\nafter:  %v", before, after)
	}
}

// TestShardedConcurrentAppliers hammers the commit pipeline from many
// goroutines (the -race job's main subject) and restarts to verify the log
// holds every acknowledged update.
func TestShardedConcurrentAppliers(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	const writers, each = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := s.Apply(&putKV{Key: fmt.Sprintf("w%d-%d", w, i), Value: "x"}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openKV(t, fs)
	defer s2.Close()
	for w := 0; w < writers; w++ {
		for i := 0; i < each; i++ {
			if _, ok := get(t, s2, fmt.Sprintf("w%d-%d", w, i)); !ok {
				t.Fatalf("acknowledged update w%d-%d missing after restart", w, i)
			}
		}
	}
}

// TestShardedShardCountChange: restart after restart, the store appends to
// the same one file and loses nothing.
func TestShardedShardCountChange(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs)
	for i := 0; i < 20; i++ {
		put(t, s, fmt.Sprintf("a%d", i), "1")
	}
	s.Close()

	for round := 0; round < 3; round++ {
		s = openKV(t, fs)
		for i := 0; i < 20; i++ {
			if _, ok := get(t, s, fmt.Sprintf("a%d", i)); !ok {
				t.Fatalf("round %d: a%d missing", round, i)
			}
		}
		put(t, s, fmt.Sprintf("r%d", round), "1")
		s.Close()
	}
	if logs := logFiles(t, fs); !reflect.DeepEqual(logs, []string{"logfile1"}) {
		t.Fatalf("log files %v, want logfile1 alone", logs)
	}
}

// TestShardedCheckpoint checkpoints with both root kinds — pickled under the
// update lock, and from a pinned snapshot: the new version's one log file
// must replay cleanly.
func TestShardedCheckpoint(t *testing.T) {
	for _, kind := range kvKinds {
		t.Run(kind.name, func(t *testing.T) {
			fs := vfs.NewMem(1)
			s := kind.open(t, fs)
			for i := 0; i < 30; i++ {
				if err := s.Apply(kind.put(fmt.Sprintf("pre%d", i), "1")); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 30; i++ {
				if err := s.Apply(kind.put(fmt.Sprintf("post%d", i), "2")); err != nil {
					t.Fatal(err)
				}
			}
			s.Close()

			s2 := kind.open(t, fs)
			defer s2.Close()
			got := kind.snapshot(t, s2)
			for i := 0; i < 30; i++ {
				if got[fmt.Sprintf("pre%d", i)] != "1" || got[fmt.Sprintf("post%d", i)] != "2" {
					t.Fatalf("pre%d/post%d missing after checkpoint+restart", i, i)
				}
			}
		})
	}
}

// TestShardedDeferredPublish: with a versioned root, publication waits for
// the log sync — but Apply's return still happens after it, so an applier
// reads its own write through the lock-free View path.
func TestShardedDeferredPublish(t *testing.T) {
	s := openVKV(t)
	defer s.Close()

	for i := 0; i < 25; i++ {
		v := fmt.Sprintf("v%d", i)
		if err := s.Apply(&putVKV{Key: "k", Value: v}); err != nil {
			t.Fatal(err)
		}
		var got string
		if err := s.View(func(root any) error {
			got = root.(*vkvRoot).Data["k"]
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got != v {
			t.Fatalf("read-your-writes broken: got %q, want %q", got, v)
		}
		snap, err := s.SnapshotAt()
		if err != nil {
			t.Fatal(err)
		}
		if snap.Seq() != uint64(i+1) {
			t.Fatalf("published seq %d after %d applies", snap.Seq(), i+1)
		}
		snap.Release()
	}
}

// TestShardedRejectsSkipDamaged: skipping damaged log entries is open to
// every store, whichever root it has: its one log is the paper's, where
// hopping over an entry loses that entry alone.
func TestShardedRejectsSkipDamaged(t *testing.T) {
	for _, kind := range kvKinds {
		s := kind.open(t, vfs.NewMem(1), func(c *Config) { c.SkipDamagedLogEntries = true })
		if err := s.Apply(kind.put("k", "v")); err != nil {
			t.Errorf("%s: %v", kind.name, err)
		}
		s.Close()
	}
}

// TestShardedApplyBatch commits batches behind one sync each and verifies
// prefix semantics when a mid-batch Verify fails.
func TestShardedApplyBatch(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.Deterministic = true })

	var batch []Update
	for i := 0; i < 10; i++ {
		batch = append(batch, &putKV{Key: fmt.Sprintf("b%d", i), Value: "1"})
	}
	if err := s.ApplyBatch(batch); err != nil {
		t.Fatal(err)
	}

	// An invalid update mid-batch: the prefix commits, the rest does not.
	bad := []Update{
		&putKV{Key: "good", Value: "1"},
		&putKV{Key: "", Value: "boom"}, // fails Verify
		&putKV{Key: "never", Value: "1"},
	}
	if err := s.ApplyBatch(bad); err == nil {
		t.Fatal("batch with failing Verify reported success")
	}
	s.Close()

	s2 := openKV(t, fs)
	defer s2.Close()
	for i := 0; i < 10; i++ {
		if _, ok := get(t, s2, fmt.Sprintf("b%d", i)); !ok {
			t.Fatalf("batched b%d missing after restart", i)
		}
	}
	if _, ok := get(t, s2, "good"); !ok {
		t.Fatal("committed prefix of failed batch missing")
	}
	if _, ok := get(t, s2, "never"); ok {
		t.Fatal("update after failed Verify was committed")
	}
}

// TestShardedHistory reads the audit trail back off the current and retained
// logs and checks sequence order.
func TestShardedHistory(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openKV(t, fs, func(c *Config) { c.Retain = 2 })
	for i := 0; i < 15; i++ {
		put(t, s, fmt.Sprintf("h%d", i), "1")
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 15; i < 30; i++ {
		put(t, s, fmt.Sprintf("h%d", i), "1")
	}
	defer s.Close()

	var seqs []uint64
	if err := s.History(func(seq uint64, u Update) error {
		seqs = append(seqs, seq)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 30 {
		t.Fatalf("history returned %d entries, want 30", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("history seq[%d] = %d, want %d", i, seq, i+1)
		}
	}
}

// TestOpenRefusesStreamLogFiles: a directory holding a log split into
// streams — logfile<v>.<i> or archive-logfile<v>.<i> — is refused with an
// error naming the file, and left exactly as it was.
func TestOpenRefusesStreamLogFiles(t *testing.T) {
	for _, stream := range []string{"logfile1.1", "archive-logfile1.2"} {
		fs := vfs.NewMem(1)
		s := openKV(t, fs, func(c *Config) { c.Retain = 0 })
		put(t, s, "a", "1")
		s.Close()
		if err := vfs.WriteFile(fs, stream, []byte("stream")); err != nil {
			t.Fatal(err)
		}
		before := dirImage(t, fs)
		_, err := Open(Config{FS: fs, NewRoot: newKV})
		if !errors.Is(err, checkpoint.ErrStreamLog) || !strings.Contains(err.Error(), stream) {
			t.Fatalf("%s: Open = %v, want ErrStreamLog naming it", stream, err)
		}
		if after := dirImage(t, fs); !reflect.DeepEqual(before, after) {
			t.Fatalf("%s: Open changed the directory:\nbefore %q\nafter  %q", stream, before, after)
		}
	}
}

// dirImage reads every file of fs.
func dirImage(t *testing.T, fs vfs.FS) map[string][]byte {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	img := map[string][]byte{}
	for _, n := range names {
		data, err := vfs.ReadFile(fs, n)
		if err != nil {
			t.Fatal(err)
		}
		img[n] = bytes.Clone(data)
	}
	return img
}
