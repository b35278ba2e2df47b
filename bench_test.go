// Benchmarks, one per experiment id in DESIGN.md / EXPERIMENTS.md. They
// measure the raw operations on this machine; the smalldb-bench command
// runs the same workloads under the 1987 disk/CPU model and prints the
// paper-vs-measured tables.
//
//	go test -bench=. -benchmem
package smalldb_test

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"

	"smalldb"
	"smalldb/internal/baseline/adhoc"
	"smalldb/internal/baseline/textfile"
	"smalldb/internal/baseline/twophase"
	"smalldb/internal/bench"
	"smalldb/internal/nameserver"
	"smalldb/internal/rpc"
	"smalldb/internal/vfs"
)

// buildServer populates a name server with entries for the read/update
// benches.
func buildServer(b *testing.B, entries int, cfg nameserver.Config) (*nameserver.Server, *vfs.Mem) {
	b.Helper()
	mem := vfs.NewMem(1987)
	cfg.FS = mem
	s, err := nameserver.Open(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < entries; i++ {
		if err := s.Set(bench.NameFor(i), bench.Value(rng, 64)); err != nil {
			b.Fatal(err)
		}
	}
	b.Cleanup(func() { s.Close() })
	return s, mem
}

// BenchmarkE1Enquiry: a pure virtual-memory lookup (paper §5: 5 ms on a
// MicroVAX; the point is zero disk I/O).
func BenchmarkE1Enquiry(b *testing.B) {
	s, _ := buildServer(b, 8000, nameserver.Config{})
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup(bench.NameFor(rng.Intn(8000))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE2Update: the full update protocol — verify, pickle, log append
// + sync, in-memory apply (paper §5: 54 ms total, one disk write).
func BenchmarkE2Update(b *testing.B) {
	s, _ := buildServer(b, 8000, nameserver.Config{})
	rng := rand.New(rand.NewSource(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Set(bench.NameFor(rng.Intn(8000)), bench.Value(rng, 64)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := s.Stats()
	if st.Updates > 0 {
		b.ReportMetric(float64(st.PickleTime.Nanoseconds())/float64(st.Updates), "pickle-ns/op")
		b.ReportMetric(float64(st.CommitTime.Nanoseconds())/float64(st.Updates), "commit-ns/op")
	}
}

// BenchmarkE3Checkpoint: pickling and writing the whole ~1 MB database
// (paper §5: 55 s pickle + 5 s disk).
func BenchmarkE3Checkpoint(b *testing.B) {
	s, _ := buildServer(b, 8000, nameserver.Config{Retain: 0})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Restart: recovery with a 1000-entry log (paper §5: restart
// time ∝ checkpoint size + log length).
func BenchmarkE4Restart(b *testing.B) {
	mem := vfs.NewMem(1987)
	s, err := nameserver.Open(nameserver.Config{FS: mem})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 2000; i++ {
		s.Set(bench.NameFor(i), bench.Value(rng, 64))
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s.Set(bench.NameFor(rng.Intn(2000)), bench.Value(rng, 64))
	}
	s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s2, err := nameserver.Open(nameserver.Config{FS: mem})
		if err != nil {
			b.Fatal(err)
		}
		if st := s2.Stats(); st.RestartEntries != 1000 {
			b.Fatalf("replayed %d entries", st.RestartEntries)
		}
		s2.Close()
	}
}

// BenchmarkE5ThroughputBase and ...GroupCommit: concurrent updates, the
// paper's "more than 15 transactions per second" and its group-commit
// improvement (§5). The store's one pipeline groups concurrent commits;
// the base design's one-update-at-a-time is a mutex here in the harness.
func BenchmarkE5ThroughputBase(b *testing.B)        { benchThroughput(b, false) }
func BenchmarkE5ThroughputGroupCommit(b *testing.B) { benchThroughput(b, true) }

func benchThroughput(b *testing.B, group bool) {
	s, _ := buildServer(b, 500, nameserver.Config{})
	var turn sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(5))
		i := 0
		for pb.Next() {
			if !group {
				turn.Lock()
			}
			err := s.Set(fmt.Sprintf("bench/k%d", i), bench.Value(rng, 32))
			if !group {
				turn.Unlock()
			}
			if err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkE6* run the same update on each §2 baseline engine.
func BenchmarkE6TextFile(b *testing.B) {
	mem := vfs.NewMem(1)
	db, err := textfile.Open(mem, "passwd")
	if err != nil {
		b.Fatal(err)
	}
	benchKV(b, db.Update, db.Lookup)
}

func BenchmarkE6AdHoc(b *testing.B) {
	mem := vfs.NewMem(1)
	db, err := adhoc.Open(mem, "data")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchKV(b, db.Update, db.Lookup)
}

func BenchmarkE6TwoPhase(b *testing.B) {
	mem := vfs.NewMem(1)
	db, err := twophase.Open(mem)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	benchKV(b, db.Update, db.Lookup)
}

func BenchmarkE6ThisDesign(b *testing.B) {
	s, _ := buildServer(b, 0, nameserver.Config{})
	benchKV(b,
		func(k, v string) error { return s.Set(k, v) },
		func(k string) (string, bool, error) {
			v, err := s.Lookup(k)
			if err != nil {
				return "", false, nil
			}
			return v, true, nil
		})
}

func benchKV(b *testing.B, update func(k, v string) error, lookup func(k string) (string, bool, error)) {
	b.Helper()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		if err := update(fmt.Sprintf("key%03d", i), bench.Value(rng, 48)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := fmt.Sprintf("key%03d", rng.Intn(200))
		if i%2 == 0 {
			if err := update(k, bench.Value(rng, 48)); err != nil {
				b.Fatal(err)
			}
		} else if _, _, err := lookup(k); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE11RPC: a remote enquiry round trip over the RPC layer (paper
// §5: 13 ms including an 8 ms network; here the transport is an in-memory
// pipe, so this measures marshalling + dispatch).
func BenchmarkE11RPC(b *testing.B) {
	s, _ := buildServer(b, 1000, nameserver.Config{})
	srv := rpc.NewServer()
	if err := srv.Register("NS", nameserver.NewRPCService(s)); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	cConn, sConn := net.Pipe()
	go srv.ServeConn(sConn)
	client := rpc.NewClient(cConn)
	defer client.Close()

	rng := rand.New(rand.NewSource(8))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var reply nameserver.LookupReply
		if err := client.Call("NS.Lookup", &nameserver.LookupArgs{Name: bench.NameFor(rng.Intn(1000))}, &reply); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE14PartitionedApply: an update through the §7 partitioned set —
// the partition's own store, the same one-disk-write protocol.
func BenchmarkE14PartitionedApply(b *testing.B) {
	fs := vfs.NewMem(1)
	set, err := smalldb.OpenMulti(smalldb.MultiConfig{
		FS: fs,
		Partitions: map[string]func() any{
			"p0": func() any { return &bookRoot{Entries: map[string]string{}} },
			"p1": func() any { return &bookRoot{Entries: map[string]string{}} },
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		part := "p0"
		if i%2 == 1 {
			part = "p1"
		}
		if err := set.Apply(part, &addBook{K: fmt.Sprintf("k%d", i), V: "v"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWideDirInsert: the cost sorted arcs pay where a hash table paid
// none. It creates n names in one directory, in random order and in place
// (no snapshot between them, as log replay runs). A directory past 32 arcs
// keeps them in blocks, so an insert copies one block and, when that block
// splits, shifts the block index: it was a shift of the whole arc slice,
// O(fan-out), where the map was O(1). ns/name is the whole run divided by
// n; EXPERIMENTS.md records it beside the flat slice's and the map's.
func BenchmarkWideDirInsert(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		b.Run(fmt.Sprintf("names=%d", n), func(b *testing.B) {
			updates := make([]*nameserver.SetValue, n)
			for i, j := range rand.New(rand.NewSource(1)).Perm(n) {
				updates[i] = &nameserver.SetValue{Path: []string{"wide", fmt.Sprintf("name%07d", j)}, Value: "v"}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree := nameserver.NewTree()
				for _, u := range updates {
					if err := u.Apply(tree); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/name")
		})
	}
}

// BenchmarkCOWSet: one update of the benchmark workload's hot path, at tree
// level. The tree is its data set, org/deptNNN/hostNNNNN/addr for 200
// departments of 500 hosts, loaded as its bulk load does (one PutSubtree and
// one snapshot per department); an op sets a random existing name and
// publishes a snapshot, so every node on the 1 → 200 → 500 → 1 path is
// copied. B/op is what the copy costs.
func BenchmarkCOWSet(b *testing.B) {
	tree := nameserver.NewTree()
	var names [][]string
	for d := 0; d < 200; d++ {
		dept := &nameserver.Node{Children: map[string]*nameserver.Node{}}
		for h := 0; h < 500; h++ {
			host := fmt.Sprintf("host%05d", d*500+h)
			dept.Children[host] = &nameserver.Node{Children: map[string]*nameserver.Node{"addr": {Value: "v", HasValue: true}}}
			names = append(names, []string{"org", fmt.Sprintf("dept%03d", d), host, "addr"})
		}
		u := &nameserver.PutSubtree{Path: []string{"org", fmt.Sprintf("dept%03d", d)}, Subtree: dept}
		if err := u.Verify(tree); err != nil {
			b.Fatal(err)
		}
		if err := u.Apply(tree); err != nil {
			b.Fatal(err)
		}
		tree.SnapshotView()
	}
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (&nameserver.SetValue{Path: names[rng.Intn(len(names))], Value: "w"}).Apply(tree); err != nil {
			b.Fatal(err)
		}
		tree.SnapshotView()
	}
}

// BenchmarkLoadedLookup: random Lookups on a store reopened from a
// checkpoint of the benchmark workload's data set, org/deptNNN/hostNNNNN/addr
// for 200 departments of 500 hosts with a distinct 48-byte value each: the
// tree as nsd holds it after a restart, each host/addr an inline path in its
// department's arc. Besides ns/op it reports heap-B/name, the live heap the
// load added per name.
func BenchmarkLoadedLookup(b *testing.B) {
	mem := vfs.NewMem(1)
	s, err := nameserver.Open(nameserver.Config{FS: mem})
	if err != nil {
		b.Fatal(err)
	}
	var names []string
	for d := 0; d < 200; d++ {
		dept := &nameserver.Node{Children: map[string]*nameserver.Node{}}
		for h := 0; h < 500; h++ {
			host := fmt.Sprintf("host%05d", d*500+h)
			leaf := &nameserver.Node{Value: fmt.Sprintf("%048x", (d*500+h)*0x9e3779b9), HasValue: true}
			dept.Children[host] = &nameserver.Node{Children: map[string]*nameserver.Node{"addr": leaf}}
			names = append(names, fmt.Sprintf("org/dept%03d/%s/addr", d, host))
		}
		if err := s.Put(fmt.Sprintf("org/dept%03d", d), dept); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	s.Close()
	s = nil // so that the heap before the load holds no tree
	live := func() uint64 {
		var m runtime.MemStats
		runtime.GC()
		runtime.GC() // the second frees what the first left to pools' victim caches
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	before := live()
	if s, err = nameserver.Open(nameserver.Config{FS: mem}); err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	perName := float64(live()-before) / float64(len(names))
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Lookup(names[rng.Intn(len(names))]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(perName, "heap-B/name")
}

// BenchmarkE14PartitionCheckpoint: checkpointing one partition of two.
func BenchmarkE14PartitionCheckpoint(b *testing.B) {
	fs := vfs.NewMem(1)
	set, err := smalldb.OpenMulti(smalldb.MultiConfig{
		FS: fs,
		Partitions: map[string]func() any{
			"p0": func() any { return &bookRoot{Entries: map[string]string{}} },
			"p1": func() any { return &bookRoot{Entries: map[string]string{}} },
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer set.Close()
	for i := 0; i < 2000; i++ {
		set.Apply("p0", &addBook{K: fmt.Sprintf("k%d", i), V: "v"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := set.Checkpoint("p0"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- facade tests: the public API end to end ---

type bookRoot struct {
	Entries map[string]string
}

type addBook struct{ K, V string }

func (u *addBook) Verify(root any) error {
	if u.K == "" {
		return errors.New("empty key")
	}
	return nil
}

func (u *addBook) Apply(root any) error {
	root.(*bookRoot).Entries[u.K] = u.V
	return nil
}

func init() {
	smalldb.Register(&bookRoot{})
	smalldb.RegisterUpdate(&addBook{})
}

func TestFacadeEndToEnd(t *testing.T) {
	fs := smalldb.NewMemFS(1)
	cfg := smalldb.Config{
		FS:      fs,
		NewRoot: func() any { return &bookRoot{Entries: map[string]string{}} },
		Retain:  1,
	}
	st, err := smalldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(&addBook{K: "k", V: "v"}); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(&addBook{K: "k2", V: "v2"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	fs.Crash()

	st2, err := smalldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	err = st2.View(func(root any) error {
		b := root.(*bookRoot)
		if b.Entries["k"] != "v" || b.Entries["k2"] != "v2" {
			return fmt.Errorf("entries wrong: %v", b.Entries)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Apply(&addBook{}); err == nil {
		t.Fatal("precondition failure not surfaced through facade")
	}
}

func TestFacadeAuditTrail(t *testing.T) {
	fs := smalldb.NewMemFS(1)
	cfg := smalldb.Config{
		FS:          fs,
		NewRoot:     func() any { return &bookRoot{Entries: map[string]string{}} },
		ArchiveLogs: true,
	}
	st, err := smalldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	st.Apply(&addBook{K: "one", V: "1"})
	st.Checkpoint()
	st.Apply(&addBook{K: "two", V: "2"})

	var trail []string
	err = st.History(true, func(seq uint64, u smalldb.Update) error {
		trail = append(trail, fmt.Sprintf("%d:%s", seq, u.(*addBook).K))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(trail) != 2 || trail[0] != "1:one" || trail[1] != "2:two" {
		t.Errorf("audit trail = %v", trail)
	}
}

func TestFacadeDirFS(t *testing.T) {
	dir := t.TempDir()
	fs, err := smalldb.NewDirFS(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smalldb.Config{
		FS:      fs,
		NewRoot: func() any { return &bookRoot{Entries: map[string]string{}} },
	}
	st, err := smalldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Apply(&addBook{K: "disk", V: "real"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, err := smalldb.Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	st2.View(func(root any) error {
		if root.(*bookRoot).Entries["disk"] != "real" {
			t.Error("durability on the real file system failed")
		}
		return nil
	})
}
