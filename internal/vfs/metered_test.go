package vfs

import (
	"sync"
	"testing"
	"time"
)

// microVAX mirrors the E-series calibration (see internal/bench): 20 ms
// per write op, 30 ms per open, 200 KiB/s streaming both ways.
var microVAX = Profile{
	PerOpWrite:       20 * time.Millisecond,
	PerOpRead:        30 * time.Millisecond,
	WriteBytesPerSec: 200 << 10,
	ReadBytesPerSec:  200 << 10,
}

func xfer(bytes, bps int64) time.Duration {
	if bps == 0 {
		return 0
	}
	return time.Duration(bytes * int64(time.Second) / bps)
}

// runAccountingWorkload writes 150 bytes, syncs, reopens and reads 60
// bytes through m, then checks the tallies and the modeled time.
func runAccountingWorkload(t *testing.T, m *Metered, prof Profile) {
	t.Helper()
	f, err := m.Create("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(make([]byte, 50), 10); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	r, err := m.Open("a")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 40)
	if _, err := r.Read(buf); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAt(buf[:20], 5); err != nil {
		t.Fatal(err)
	}
	r.Close()

	s := m.Stats()
	if s.Syncs != 1 || s.Opens != 1 || s.BytesWritten != 150 || s.BytesRead != 60 {
		t.Errorf("stats = %+v, want 1 sync, 1 open, 150 bytes written, 60 read", s)
	}
	// Modeled: the sync's per-op + 150 B of transfer, the open's
	// per-op, and each read's bytes at the read bandwidth.
	want := prof.PerOpWrite + xfer(150, prof.WriteBytesPerSec) + prof.PerOpRead +
		xfer(40, prof.ReadBytesPerSec) + xfer(20, prof.ReadBytesPerSec)
	if s.ModeledIO != want {
		t.Errorf("ModeledIO = %v, want %v", s.ModeledIO, want)
	}
}

// TestAccounting runs the workload under the modeled profile.
func TestAccounting(t *testing.T) {
	runAccountingWorkload(t, NewMetered(NewMem(1), microVAX, 0), microVAX)
}

// TestCountingTallies runs the workload under the zero profile, which
// only counts, and checks that ResetStats clears the tallies.
func TestCountingTallies(t *testing.T) {
	m := NewMetered(NewMem(1), Profile{}, 0)
	runAccountingWorkload(t, m, Profile{})
	m.ResetStats()
	if s := m.Stats(); s != (Stats{}) {
		t.Errorf("ResetStats left %+v", s)
	}
}

func TestSyncChargesOnlyUnsynced(t *testing.T) {
	m := NewMetered(NewMem(1), microVAX, 0)
	f, _ := m.Create("f")
	f.Write(make([]byte, 100))
	f.Sync()
	first := m.Stats().ModeledIO
	f.Sync() // nothing new: per-op cost only
	second := m.Stats().ModeledIO - first
	if second != microVAX.PerOpWrite {
		t.Errorf("second sync cost %v, want per-op %v", second, microVAX.PerOpWrite)
	}
}

func TestReadAccounting(t *testing.T) {
	mem := NewMem(1)
	WriteFile(mem, "cp", make([]byte, 4096))
	m := NewMetered(mem, microVAX, 0)
	f, err := m.Open("cp")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf := make([]byte, 4096)
	f.Read(buf)
	s := m.Stats()
	if s.Opens != 1 {
		t.Errorf("Opens = %d", s.Opens)
	}
	if s.BytesRead != 4096 {
		t.Errorf("BytesRead = %d", s.BytesRead)
	}
	if s.ModeledIO < microVAX.PerOpRead {
		t.Errorf("ModeledIO = %v missing open cost", s.ModeledIO)
	}
}

func TestScaledBlocking(t *testing.T) {
	// With scale, a sync should actually block for about modeled×scale.
	m := NewMetered(NewMem(1), Profile{PerOpWrite: 100 * time.Millisecond}, 0.1) // 10ms real
	f, _ := m.Create("f")
	f.Write([]byte("x"))
	start := time.Now()
	f.Sync()
	elapsed := time.Since(start)
	if elapsed < 5*time.Millisecond {
		t.Errorf("sync returned in %v; expected ≥ ~10ms block", elapsed)
	}
}

func TestZeroScaleDoesNotBlock(t *testing.T) {
	m := NewMetered(NewMem(1), microVAX, 0)
	f, _ := m.Create("f")
	f.Write(make([]byte, 1<<20))
	start := time.Now()
	f.Sync() // modeled ~5s; must not block
	if time.Since(start) > 100*time.Millisecond {
		t.Error("zero-scale sync blocked")
	}
}

func TestPassThrough(t *testing.T) {
	m := NewMetered(NewMem(1), Profile{}, 0)
	if err := WriteFile(m, "a", []byte("data")); err != nil {
		t.Fatal(err)
	}
	if err := m.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(m, "b")
	if err != nil || string(got) != "data" {
		t.Fatalf("got %q, %v", got, err)
	}
	names, _ := m.List()
	if len(names) != 1 || names[0] != "b" {
		t.Errorf("List = %v", names)
	}
	if size, _ := m.Stat("b"); size != 4 {
		t.Errorf("Stat = %d", size)
	}
	if err := m.Remove("b"); err != nil {
		t.Fatal(err)
	}
	if Exists(m, "b") {
		t.Error("b still exists")
	}
}

func TestCrashUnderneath(t *testing.T) {
	// Crash semantics of the underlying Mem must be visible through Metered.
	mem := NewMem(1)
	m := NewMetered(mem, Profile{}, 0)
	f, _ := m.Create("f")
	f.Write([]byte("keep"))
	f.Sync()
	f.Write([]byte("lose"))
	f.Close()
	mem.Crash()
	got, _ := ReadFile(m, "f")
	if string(got) != "keep" {
		t.Errorf("got %q", got)
	}
}

// The modeled disk has one arm: concurrent syncs serialize, so N
// concurrent operations take about N× one operation's time.
func TestSingleArmSerializes(t *testing.T) {
	m := NewMetered(NewMem(1), Profile{PerOpWrite: 20 * time.Millisecond}, 0.5) // 10 ms real per op

	const ops = 6
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < ops; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, err := m.Create(string(rune('a' + i)))
			if err != nil {
				t.Error(err)
				return
			}
			f.Write([]byte("x"))
			f.Sync()
			f.Close()
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < ops*10*time.Millisecond/2 {
		t.Errorf("%d concurrent syncs finished in %v; arm not serializing", ops, elapsed)
	}
}

// TestTransferOffTheArm: a sync's transfer time is paid off the arm, so
// while file A streams 1 MiB (~250 ms at 4 MiB/s), a 100-byte sync of file
// B waits only for the per-op time, not for A's transfer.
func TestTransferOffTheArm(t *testing.T) {
	m := NewMetered(NewMem(1), Profile{PerOpWrite: 5 * time.Millisecond, WriteBytesPerSec: 4 << 20}, 1)
	a, _ := m.Create("a")
	b, _ := m.Create("b")
	a.Write(make([]byte, 1<<20))
	b.Write(make([]byte, 100))

	start := time.Now()
	aDone := make(chan time.Duration)
	go func() {
		a.Sync()
		aDone <- time.Since(start)
	}()
	time.Sleep(20 * time.Millisecond) // A is past its per-op time, streaming
	t0 := time.Now()
	b.Sync()
	if d := time.Since(t0); d >= 50*time.Millisecond {
		t.Errorf("B's 100-byte sync took %v while A streamed; transfer is holding the arm", d)
	}
	if d := <-aDone; d < 200*time.Millisecond {
		t.Errorf("A's 1 MiB sync returned in %v; its transfer time was not paid", d)
	}
}

func TestModeledIOAccumulatesUnderConcurrency(t *testing.T) {
	m := NewMetered(NewMem(1), microVAX, 0)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, _ := m.Create(string(rune('a' + i)))
			f.Write(make([]byte, 100))
			f.Sync()
			f.Close()
		}(i)
	}
	wg.Wait()
	s := m.Stats()
	if s.Syncs != 8 {
		t.Errorf("Syncs = %d", s.Syncs)
	}
	perOp := microVAX.PerOpWrite + xfer(100, microVAX.WriteBytesPerSec)
	if s.ModeledIO != 8*perOp {
		t.Errorf("ModeledIO = %v, want %v", s.ModeledIO, 8*perOp)
	}
}

func TestResetStats(t *testing.T) {
	m := NewMetered(NewMem(1), microVAX, 0)
	f, _ := m.Create("f")
	f.Write([]byte("x"))
	f.Sync()
	f.Close()
	m.ResetStats()
	if s := m.Stats(); s != (Stats{}) {
		t.Errorf("stats not reset: %+v", s)
	}
}

func TestOverOSFilesystem(t *testing.T) {
	// The disk model composes with the real file system too.
	osfs, err := NewOS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetered(osfs, Profile{}, 0)
	if err := WriteFile(m, "real", []byte("bytes")); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(m, "real")
	if err != nil || string(got) != "bytes" {
		t.Fatalf("got %q, %v", got, err)
	}
	if s := m.Stats(); s.Syncs != 1 || s.BytesWritten != 5 {
		t.Errorf("stats over OS fs: %+v", s)
	}
}
