package vfs

import (
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

// both runs a test against Mem and OS implementations.
func both(t *testing.T, fn func(t *testing.T, fs FS)) {
	t.Helper()
	t.Run("mem", func(t *testing.T) { fn(t, NewMem(1)) })
	t.Run("os", func(t *testing.T) {
		o, err := NewOS(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		fn(t, o)
	})
}

func TestCreateWriteRead(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		if err := WriteFile(fs, "a", []byte("hello")); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(fs, "a")
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != "hello" {
			t.Errorf("got %q", got)
		}
		size, err := fs.Stat("a")
		if err != nil || size != 5 {
			t.Errorf("Stat = %d, %v", size, err)
		}
	})
}

func TestOpenMissing(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		if _, err := fs.Open("nope"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Open missing: %v", err)
		}
		if _, err := fs.Stat("nope"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Stat missing: %v", err)
		}
		if err := fs.Remove("nope"); !errors.Is(err, ErrNotExist) {
			t.Errorf("Remove missing: %v", err)
		}
	})
}

// TestAppend: a log appends by writing at its end through OpenRW; a write
// past the file's end extends it.
func TestAppend(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		if err := WriteFile(fs, "log", []byte("one")); err != nil {
			t.Fatal(err)
		}
		f, err := fs.OpenRW("log")
		if err != nil {
			t.Fatal(err)
		}
		f.WriteAt([]byte("two"), 3)
		f.Sync()
		f.Close()
		got, _ := ReadFile(fs, "log")
		if string(got) != "onetwo" {
			t.Errorf("got %q", got)
		}
	})
}

func TestRenameReplaces(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		WriteFile(fs, "old", []byte("v2"))
		WriteFile(fs, "target", []byte("v1"))
		if err := fs.Rename("old", "target"); err != nil {
			t.Fatal(err)
		}
		got, _ := ReadFile(fs, "target")
		if string(got) != "v2" {
			t.Errorf("got %q", got)
		}
		if Exists(fs, "old") {
			t.Error("old still exists")
		}
	})
}

func TestList(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		for _, n := range []string{"c", "a", "b"} {
			WriteFile(fs, n, nil)
		}
		names, err := fs.List()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(names, []string{"a", "b", "c"}) {
			t.Errorf("got %v", names)
		}
	})
}

func TestReadWriteAt(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		f, err := fs.Create("pages")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteAt([]byte("BBBB"), 4); err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte("AAAA"), 0); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 4)
		if _, err := f.ReadAt(buf, 4); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		if string(buf) != "BBBB" {
			t.Errorf("got %q", buf)
		}
	})
}

func TestTruncate(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		WriteFile(fs, "t", []byte("0123456789"))
		f, err := fs.OpenRW("t")
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(4); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, _ := ReadFile(fs, "t")
		if string(got) != "0123" {
			t.Errorf("got %q", got)
		}
	})
}

func TestSeek(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		WriteFile(fs, "s", []byte("0123456789"))
		f, _ := fs.Open("s")
		defer f.Close()
		if pos, err := f.Seek(4, io.SeekStart); err != nil || pos != 4 {
			t.Fatalf("seek: %d %v", pos, err)
		}
		buf := make([]byte, 2)
		io.ReadFull(f, buf)
		if string(buf) != "45" {
			t.Errorf("got %q", buf)
		}
		if pos, _ := f.Seek(-2, io.SeekEnd); pos != 8 {
			t.Errorf("seek end: %d", pos)
		}
	})
}

func TestInvalidNames(t *testing.T) {
	both(t, func(t *testing.T, fs FS) {
		for _, name := range []string{"", "a/b", "..", ".", "x\x00y", `a\b`} {
			if _, err := fs.Create(name); err == nil {
				t.Errorf("Create(%q) succeeded", name)
			}
		}
	})
}

// --- Mem-specific crash semantics ---

func TestCrashDropsUnsynced(t *testing.T) {
	m := NewMem(1)
	f, _ := m.Create("f")
	f.Write([]byte("synced"))
	f.Sync()
	f.Write([]byte(" unsynced"))
	f.Close()
	m.Crash()
	got, err := ReadFile(m, "f")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "synced" {
		t.Errorf("after crash: %q", got)
	}
}

func TestCrashPreservesSynced(t *testing.T) {
	m := NewMem(1)
	WriteFile(m, "f", []byte("durable"))
	m.Crash()
	got, err := ReadFile(m, "f")
	if err != nil || string(got) != "durable" {
		t.Errorf("got %q, %v", got, err)
	}
}

func TestCrashTornPersistsPrefix(t *testing.T) {
	// Over many seeds, a torn crash must always leave a prefix (possibly
	// empty, possibly complete) of the pending write, never other bytes.
	payload := make([]byte, 4096)
	for i := range payload {
		payload[i] = byte(i)
	}
	sawPartial := false
	for seed := int64(0); seed < 50; seed++ {
		m := NewMem(seed)
		f, _ := m.Create("f")
		f.Write([]byte("base"))
		f.Sync()
		f.Write(payload)
		f.Close()
		m.CrashTorn(512)
		got, err := ReadFile(m, "f")
		if errors.Is(err, ErrDamaged) {
			sawPartial = true
			continue // damaged tail page: detectable, which is the point
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(got) < 4 || string(got[:4]) != "base" {
			t.Fatalf("seed %d: synced prefix lost: %q", seed, got[:min(8, len(got))])
		}
		rest := got[4:]
		if len(rest) > len(payload) {
			t.Fatalf("seed %d: grew beyond write", seed)
		}
		for i, b := range rest {
			if b != payload[i] {
				t.Fatalf("seed %d: byte %d = %#x, want %#x", seed, i, b, payload[i])
			}
		}
		if len(rest) > 0 && len(rest) < len(payload) {
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Error("no torn crash over 50 seeds produced a partial write; model broken")
	}
}

func TestDamagedReadFails(t *testing.T) {
	m := NewMem(1)
	WriteFile(m, "f", []byte("0123456789"))
	m.Damage("f", 5, 2)
	f, _ := m.Open("f")
	defer f.Close()
	buf := make([]byte, 10)
	if _, err := f.ReadAt(buf, 0); !errors.Is(err, ErrDamaged) {
		t.Errorf("expected ErrDamaged, got %v", err)
	}
	// Reading before the damage is fine.
	if _, err := f.ReadAt(buf[:5], 0); err != nil && err != io.EOF {
		t.Errorf("read before damage: %v", err)
	}
}

func TestFailSyncInjection(t *testing.T) {
	m := NewMem(1)
	boom := errors.New("boom")
	m.FailSync = func(name string) error { return boom }
	f, _ := m.Create("f")
	f.Write([]byte("x"))
	if err := f.Sync(); !errors.Is(err, boom) {
		t.Errorf("got %v", err)
	}
	m.FailSync = nil
	m.Crash()
	got, _ := ReadFile(m, "f")
	if len(got) != 0 {
		t.Errorf("failed sync persisted data: %q", got)
	}
}

func TestTotalBytes(t *testing.T) {
	m := NewMem(1)
	WriteFile(m, "a", make([]byte, 100))
	WriteFile(m, "b", make([]byte, 23))
	if got := m.TotalBytes(); got != 123 {
		t.Errorf("TotalBytes = %d", got)
	}
}

// Property: for any sequence of synced writes, content survives a crash.
func TestQuickSyncedSurvivesCrash(t *testing.T) {
	f := func(chunks [][]byte, seed int64) bool {
		m := NewMem(seed)
		h, err := m.Create("f")
		if err != nil {
			return false
		}
		var want []byte
		for _, c := range chunks {
			h.Write(c)
			want = append(want, c...)
		}
		h.Sync()
		h.Write([]byte("garbage that must vanish"))
		h.Close()
		m.Crash()
		got, err := ReadFile(m, "f")
		if err != nil {
			return false
		}
		return string(got) == string(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentHandles(t *testing.T) {
	m := NewMem(1)
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			name := fmt.Sprintf("f%d", g)
			for i := 0; i < 50; i++ {
				if err := WriteFile(m, name, []byte{byte(i)}); err != nil {
					done <- err
					return
				}
				if _, err := ReadFile(m, name); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
