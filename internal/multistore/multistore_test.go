package multistore

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
)

// Test partition roots and updates.
type table struct {
	Rows map[string]string
}

func newTable() any { return &table{Rows: map[string]string{}} }

type putRow struct{ K, V string }

func (u *putRow) Verify(root any) error {
	if u.K == "" {
		return errors.New("empty key")
	}
	return nil
}

func (u *putRow) Apply(root any) error {
	root.(*table).Rows[u.K] = u.V
	return nil
}

func init() {
	pickle.Register(&table{})
	core.RegisterUpdate(&putRow{})
}

func openSet(t *testing.T, fs vfs.FS, segBytes int64, parts ...string) *Set {
	t.Helper()
	cfg := Config{FS: fs, Partitions: map[string]func() any{}, SegmentBytes: segBytes}
	for _, p := range parts {
		cfg.Partitions[p] = newTable
	}
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func getRow(t *testing.T, s *Set, part, key string) (string, bool) {
	t.Helper()
	var v string
	var ok bool
	if err := s.View(part, func(root any) error {
		v, ok = root.(*table).Rows[key]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return v, ok
}

func TestBasicPartitions(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, 0, "home", "src")
	defer s.Close()

	if err := s.Apply("home", &putRow{K: "a", V: "1"}); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply("src", &putRow{K: "a", V: "2"}); err != nil {
		t.Fatal(err)
	}
	if v, _ := getRow(t, s, "home", "a"); v != "1" {
		t.Errorf("home/a = %q", v)
	}
	if v, _ := getRow(t, s, "src", "a"); v != "2" {
		t.Errorf("src/a = %q", v)
	}
	if err := s.Apply("nope", &putRow{K: "x", V: "y"}); !errors.Is(err, ErrNoPartition) {
		t.Errorf("unknown partition: %v", err)
	}
	if got := s.Partitions(); len(got) != 2 || got[0] != "home" || got[1] != "src" {
		t.Errorf("Partitions() = %v", got)
	}
}

func TestRecoveryInterleaved(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, 0, "a", "b", "c")
	for i := 0; i < 30; i++ {
		part := []string{"a", "b", "c"}[i%3]
		if err := s.Apply(part, &putRow{K: fmt.Sprintf("k%d", i), V: part}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	fs.Crash()

	s2 := openSet(t, fs, 0, "a", "b", "c")
	defer s2.Close()
	for i := 0; i < 30; i++ {
		part := []string{"a", "b", "c"}[i%3]
		if v, ok := getRow(t, s2, part, fmt.Sprintf("k%d", i)); !ok || v != part {
			t.Fatalf("%s/k%d = %q %v", part, i, v, ok)
		}
	}
}

func TestPerPartitionCheckpointIndependence(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, 0, "busy", "quiet")
	for i := 0; i < 20; i++ {
		s.Apply("busy", &putRow{K: fmt.Sprintf("k%d", i), V: "v"})
	}
	s.Apply("quiet", &putRow{K: "only", V: "one"})
	// Checkpoint only the busy partition.
	if err := s.Checkpoint("busy"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openSet(t, fs, 0, "busy", "quiet")
	defer s2.Close()
	if v, ok := getRow(t, s2, "busy", "k7"); !ok || v != "v" {
		t.Error("busy partition lost data")
	}
	if v, ok := getRow(t, s2, "quiet", "only"); !ok || v != "one" {
		t.Error("quiet partition lost data (its updates live only in the shared log)")
	}
}

func TestSegmentRetirement(t *testing.T) {
	fs := vfs.NewMem(1)
	// Tiny segments so rolling happens quickly.
	s := openSet(t, fs, 256, "p", "q")
	for i := 0; i < 40; i++ {
		s.Apply("p", &putRow{K: fmt.Sprintf("p%d", i), V: strings.Repeat("x", 40)})
		s.Apply("q", &putRow{K: fmt.Sprintf("q%d", i), V: strings.Repeat("y", 40)})
	}
	count, _, err := s.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if count < 3 {
		t.Fatalf("expected several segments, have %d", count)
	}
	// Checkpointing only p must retire nothing (q pins the log).
	if err := s.Checkpoint("p"); err != nil {
		t.Fatal(err)
	}
	afterP, _, _ := s.Segments()
	if afterP < count {
		t.Errorf("segments retired while q's checkpoint is at 0: %d -> %d", count, afterP)
	}
	// Checkpointing q as well frees everything but the active segment.
	if err := s.Checkpoint("q"); err != nil {
		t.Fatal(err)
	}
	afterQ, _, _ := s.Segments()
	if afterQ != 1 {
		t.Errorf("segments after both checkpoints: %d, want 1", afterQ)
	}
	s.Close()

	// Recovery from checkpoints + the remaining segment is complete.
	s2 := openSet(t, fs, 256, "p", "q")
	defer s2.Close()
	for i := 0; i < 40; i++ {
		if _, ok := getRow(t, s2, "p", fmt.Sprintf("p%d", i)); !ok {
			t.Fatalf("p%d lost after retirement", i)
		}
		if _, ok := getRow(t, s2, "q", fmt.Sprintf("q%d", i)); !ok {
			t.Fatalf("q%d lost after retirement", i)
		}
	}
}

func TestCrashDuringPartitionCheckpoint(t *testing.T) {
	for failAt := 1; failAt <= 3; failAt++ {
		fs := vfs.NewMem(int64(failAt))
		s := openSet(t, fs, 0, "p")
		for i := 0; i < 10; i++ {
			s.Apply("p", &putRow{K: fmt.Sprintf("k%d", i), V: "v"})
		}
		count := 0
		boom := errors.New("crash")
		fs.FailSync = func(string) error {
			count++
			if count >= failAt {
				return boom
			}
			return nil
		}
		_ = s.Checkpoint("p") // may fail; either way state must recover
		fs.FailSync = nil
		s.Close()
		fs.Crash()

		s2 := openSet(t, fs, 0, "p")
		for i := 0; i < 10; i++ {
			if _, ok := getRow(t, s2, "p", fmt.Sprintf("k%d", i)); !ok {
				t.Fatalf("failAt %d: k%d lost", failAt, i)
			}
		}
		s2.Close()
	}
}

func TestOneSyncPerUpdate(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, 0, "p", "q", "r")
	defer s.Close()
	syncs := 0
	fs.FailSync = func(string) error { syncs++; return nil }
	before := syncs
	s.Apply("p", &putRow{K: "k", V: "v"})
	s.Apply("q", &putRow{K: "k", V: "v"})
	if got := syncs - before; got != 2 {
		t.Errorf("2 updates cost %d syncs; the shared log must cost one each", got)
	}
}

func TestConcurrentPartitions(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, 4096, "a", "b", "c", "d")
	var wg sync.WaitGroup
	for _, part := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func(part string) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if err := s.Apply(part, &putRow{K: fmt.Sprintf("k%d", i), V: part}); err != nil {
					t.Error(err)
					return
				}
				if i%10 == 0 {
					if err := s.Checkpoint(part); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(part)
	}
	wg.Wait()
	s.Close()

	s2 := openSet(t, fs, 4096, "a", "b", "c", "d")
	defer s2.Close()
	for _, part := range []string{"a", "b", "c", "d"} {
		for i := 0; i < 50; i++ {
			if v, ok := getRow(t, s2, part, fmt.Sprintf("k%d", i)); !ok || v != part {
				t.Fatalf("%s/k%d = %q %v", part, i, v, ok)
			}
		}
	}
}

// TestConcurrentCheckpoints checkpoints every partition at once, over and
// over, on segments small enough to roll every few updates: each checkpoint
// finds segments to retire, and two that decide on the same segment must not
// both delete it (the loser's Checkpoint used to fail with "file does not
// exist"), nor read each other's coverage mid-write.
func TestConcurrentCheckpoints(t *testing.T) {
	fs := vfs.NewMem(1)
	parts := []string{"a", "b", "c", "d"}
	s := openSet(t, fs, 256, parts...)
	var wg sync.WaitGroup
	for _, part := range parts {
		wg.Add(1)
		go func(part string) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				if err := s.Apply(part, &putRow{K: fmt.Sprintf("k%d", i), V: part}); err != nil {
					t.Error(err)
					return
				}
				if err := s.Checkpoint(part); err != nil {
					t.Errorf("checkpoint %s after update %d: %v", part, i, err)
					return
				}
			}
		}(part)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openSet(t, fs, 256, parts...)
	defer s2.Close()
	for _, part := range parts {
		for i := 0; i < 60; i++ {
			if v, ok := getRow(t, s2, part, fmt.Sprintf("k%d", i)); !ok || v != part {
				t.Fatalf("%s/k%d = %q %v", part, i, v, ok)
			}
		}
	}
}

func TestUnknownPartitionInLog(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, 0, "old")
	s.Apply("old", &putRow{K: "k", V: "v"})
	s.Close()
	// Reopen with a config that dropped the partition.
	_, err := Open(Config{FS: fs, Partitions: map[string]func() any{"new": newTable}})
	if !errors.Is(err, ErrNoPartition) {
		t.Errorf("got %v", err)
	}
}

func TestInvalidPartitionNames(t *testing.T) {
	fs := vfs.NewMem(1)
	for _, bad := range []string{"", "with-dash", "with/slash"} {
		_, err := Open(Config{FS: fs, Partitions: map[string]func() any{bad: newTable}})
		if err == nil {
			t.Errorf("name %q accepted", bad)
		}
	}
}

func TestPreconditionFailureDoesNotLog(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, 0, "p")
	defer s.Close()
	_, before, _ := s.Segments()
	if err := s.Apply("p", &putRow{K: "", V: "v"}); err == nil {
		t.Fatal("empty key accepted")
	}
	_, after, _ := s.Segments()
	if after != before {
		t.Error("failed precondition grew the shared log")
	}
}
