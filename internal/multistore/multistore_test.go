package multistore

import (
	"errors"
	"fmt"
	"reflect"
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

func tableConfig(fs vfs.FS, parts ...string) Config {
	cfg := Config{FS: fs, Partitions: map[string]func() any{}}
	for _, p := range parts {
		cfg.Partitions[p] = newTable
	}
	return cfg
}

func openSet(t *testing.T, fs vfs.FS, parts ...string) *Set {
	t.Helper()
	s, err := Open(tableConfig(fs, parts...))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func store(t *testing.T, s *Set, part string) *core.Store {
	t.Helper()
	st, err := s.Store(part)
	if err != nil {
		t.Fatal(err)
	}
	return st
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
	s := openSet(t, fs, "home", "src")
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
	s := openSet(t, fs, "a", "b", "c")
	for i := 0; i < 30; i++ {
		part := []string{"a", "b", "c"}[i%3]
		if err := s.Apply(part, &putRow{K: fmt.Sprintf("k%d", i), V: part}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	fs.Crash()

	s2 := openSet(t, fs, "a", "b", "c")
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
	s := openSet(t, fs, "busy", "quiet")
	for i := 0; i < 20; i++ {
		s.Apply("busy", &putRow{K: fmt.Sprintf("k%d", i), V: "v"})
	}
	s.Apply("quiet", &putRow{K: "only", V: "one"})
	// Checkpoint only the busy partition.
	if err := s.Checkpoint("busy"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2 := openSet(t, fs, "busy", "quiet")
	defer s2.Close()
	if v, ok := getRow(t, s2, "busy", "k7"); !ok || v != "v" {
		t.Error("busy partition lost data")
	}
	if v, ok := getRow(t, s2, "quiet", "only"); !ok || v != "one" {
		t.Error("quiet partition lost data (its updates live only in its log)")
	}
}

// TestPerPartitionLogs: each partition logs to its own file, so
// checkpointing one empties that partition's log and no other's.
func TestPerPartitionLogs(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, "p", "q")
	for i := 0; i < 40; i++ {
		s.Apply("p", &putRow{K: fmt.Sprintf("p%d", i), V: strings.Repeat("x", 40)})
		s.Apply("q", &putRow{K: fmt.Sprintf("q%d", i), V: strings.Repeat("y", 40)})
	}
	if err := s.Checkpoint("p"); err != nil {
		t.Fatal(err)
	}
	if got := store(t, s, "p").Stats().LogEntries; got != 0 {
		t.Errorf("p's log holds %d entries after p's checkpoint, want 0", got)
	}
	if got := store(t, s, "q").Stats().LogEntries; got != 40 {
		t.Errorf("q's log holds %d entries after p's checkpoint, want 40", got)
	}
	s.Close()

	// Recovery from p's checkpoint and q's log is complete.
	s2 := openSet(t, fs, "p", "q")
	defer s2.Close()
	for i := 0; i < 40; i++ {
		if _, ok := getRow(t, s2, "p", fmt.Sprintf("p%d", i)); !ok {
			t.Fatalf("p%d lost after p's checkpoint", i)
		}
		if _, ok := getRow(t, s2, "q", fmt.Sprintf("q%d", i)); !ok {
			t.Fatalf("q%d lost after p's checkpoint", i)
		}
	}
}

func TestCrashDuringPartitionCheckpoint(t *testing.T) {
	for failAt := 1; failAt <= 3; failAt++ {
		fs := vfs.NewMem(int64(failAt))
		s := openSet(t, fs, "p")
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

		s2 := openSet(t, fs, "p")
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
	s := openSet(t, fs, "p", "q", "r")
	defer s.Close()
	syncs := 0
	fs.FailSync = func(string) error { syncs++; return nil }
	before := syncs
	s.Apply("p", &putRow{K: "k", V: "v"})
	s.Apply("q", &putRow{K: "k", V: "v"})
	if got := syncs - before; got != 2 {
		t.Errorf("2 updates cost %d syncs; each must cost one", got)
	}
}

func TestConcurrentPartitions(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, "a", "b", "c", "d")
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

	s2 := openSet(t, fs, "a", "b", "c", "d")
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
// over, beside every partition's updates: the stores share one directory, so
// no checkpoint may touch, or be confused by, another partition's files.
func TestConcurrentCheckpoints(t *testing.T) {
	fs := vfs.NewMem(1)
	parts := []string{"a", "b", "c", "d"}
	s := openSet(t, fs, parts...)
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

	s2 := openSet(t, fs, parts...)
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
	s := openSet(t, fs, "old")
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

// TestDirectoryRule: every file must belong to a configured partition. A
// partition dropped from the config and a directory in the old shared-log
// layout (seg<N>, cp-<part>-<N>) are both refused — neither may open as
// empty partitions and silently lose their data — and the refusal names
// the file and changes nothing on disk.
func TestDirectoryRule(t *testing.T) {
	oldLayout := vfs.NewMem(1)
	for _, n := range []string{"seg1", "seg21", "cp-p-20"} {
		if err := vfs.WriteFile(oldLayout, n, []byte("data")); err != nil {
			t.Fatal(err)
		}
	}
	dropped := vfs.NewMem(1)
	s := openSet(t, dropped, "old", "kept")
	if err := s.Apply("old", &putRow{K: "k", V: "v"}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	for _, tc := range []struct {
		name  string
		fs    *vfs.Mem
		parts []string
	}{
		{"dropped partition", dropped, []string{"kept"}},
		{"old layout", oldLayout, []string{"p"}},
		{"old layout, partition named like a segment", oldLayout, []string{"seg1"}},
		{"old layout, partition named like the checkpoint prefix", oldLayout, []string{"cp", "seg21"}},
	} {
		before, _ := tc.fs.List()
		_, err := Open(tableConfig(tc.fs, tc.parts...))
		if !errors.Is(err, ErrNoPartition) {
			t.Errorf("%s: Open = %v, want ErrNoPartition", tc.name, err)
			continue
		}
		t.Logf("%s: %v", tc.name, err)
		if after, _ := tc.fs.List(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: refused Open changed the directory: %v -> %v", tc.name, before, after)
		}
	}

	for _, bad := range []string{"with-dash", "with/slash", `with\backslash`} {
		if _, err := Open(tableConfig(vfs.NewMem(1), bad)); err == nil {
			t.Errorf("partition name %q accepted", bad)
		}
	}
}

func TestPreconditionFailureDoesNotLog(t *testing.T) {
	fs := vfs.NewMem(1)
	s := openSet(t, fs, "p")
	defer s.Close()
	before := store(t, s, "p").Stats().LogBytes
	if err := s.Apply("p", &putRow{K: "", V: "v"}); err == nil {
		t.Fatal("empty key accepted")
	}
	if after := store(t, s, "p").Stats().LogBytes; after != before {
		t.Error("failed precondition grew the log")
	}
}
