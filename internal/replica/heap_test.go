package replica

import (
	"fmt"
	"runtime"
	"testing"

	"smalldb/internal/core"
	"smalldb/internal/nameserver"
	"smalldb/internal/vfs"
)

// stampedLoad writes names in the benchmark's shape,
// org/deptNNN/hostNNNNN/addr with a distinct 48-byte value each, as a
// replica member's stamped Sets in batches of 1 000, and checkpoints them.
func stampedLoad(t *testing.T, fs vfs.FS, names int) {
	t.Helper()
	n, err := Open(Config{Name: "alpha", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for lo := 0; lo < names; lo += 1000 {
		us := make([]core.Update, 0, 1000)
		for idx := lo; idx < min(lo+1000, names); idx++ {
			path := []string{"org", fmt.Sprintf("dept%03d", idx/500), fmt.Sprintf("host%05d", idx), "addr"}
			us = append(us, &nameserver.SetValue{Path: path, Value: fmt.Sprintf("%048x", idx*0x9e3779b9)})
		}
		if err := n.ApplyBatch(us); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// loadedBytes reopens the member on fs and returns the heap it holds.
func loadedBytes(t *testing.T, fs vfs.FS) uint64 {
	t.Helper()
	before := heapAlloc()
	n, err := Open(Config{Name: "alpha", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	held := heapAlloc() - before
	runtime.KeepAlive(n)
	n.Close()
	return held
}

func heapAlloc() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestReplicatedTreeBytesPerName: a member reopened from a checkpoint of 10 000
// stamped Sets in the benchmark's shape holds each name in at most 115 heap
// bytes: 107 on amd64, the host's 24-byte arc in its department's block and
// the one string it holds, with the host label, addr, the stamps and the
// value, whose 73 bytes take the 80-byte size class. With the label a string
// of its own beside the path, in a 40-byte arc, it took 123; with the addr
// leaf a Node of its own for its stamps, and so the host too, 355. The root
// keeps nothing per update beside its names: the recent updates are the
// log's.
func TestReplicatedTreeBytesPerName(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes the heap")
	}
	const names = 10000
	fs := vfs.NewMem(1)
	stampedLoad(t, fs, names)
	per := loadedBytes(t, fs) / names
	t.Logf("%d stamped names loaded: %d heap bytes each", names, per)
	if per > 115 {
		t.Fatalf("a loaded stamped name takes %d heap bytes, want at most 115", per)
	}
}
