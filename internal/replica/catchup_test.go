package replica

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"smalldb/internal/checkpoint"
	"smalldb/internal/core"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

// TestCatchupReadsRetainedLog: with Retain 1 a catch-up reaches back across
// a checkpoint as entries, through the retained log and the current one,
// and becomes the root once the next checkpoint retires the log that held
// the first entry the receiver lacks.
func TestCatchupReadsRetainedLog(t *testing.T) {
	n, err := Open(Config{Name: "a", FS: vfs.NewMem(1), Retain: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	setThenCheckpoint := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := n.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	catchup := func(have uint64) string {
		t.Helper()
		c, err := n.catchupFor(map[string]uint64{"a": have})
		if err != nil {
			t.Fatal(err)
		}
		if c.Root != nil {
			return fmt.Sprintf("root at %v", c.Root.Vector)
		}
		var seqs []string
		for _, e := range c.Entries {
			seqs = append(seqs, fmt.Sprintf("%s/%d", e.Origin, e.Seq))
		}
		return strings.Join(seqs, " ")
	}
	setThenCheckpoint(0, 5) // a/1..5 in the retained log
	for i := 5; i < 10; i++ {
		if err := n.Set(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := catchup(2), "a/3 a/4 a/5 a/6 a/7 a/8 a/9 a/10"; got != want {
		t.Fatalf("catch-up from a/2 across the checkpoint: %s, want %s", got, want)
	}
	setThenCheckpoint(10, 12) // a/1..5 retired for good
	if got, want := catchup(2), "root at map[a:12]"; got != want {
		t.Fatalf("catch-up from a/2 past the retained log: %s, want %s", got, want)
	}
	if got, want := catchup(7), "a/8 a/9 a/10 a/11 a/12"; got != want {
		t.Fatalf("catch-up from a/7: %s, want %s", got, want)
	}
	if got := catchup(12); got != "" {
		t.Fatalf("catch-up of a holder of everything: %s", got)
	}
}

// TestParentInstallReplay: a log written while the root kept a history
// window may hold an install whose ahead entries came from that window, not
// the log entry. Replaying one over a root that holds updates beyond the
// snapshot would lower a vector slot, so Open refuses it with
// ErrInstallRegress naming the entry; one over a root the snapshot covers
// replays as it did.
func TestParentInstallReplay(t *testing.T) {
	snap := NewRoot().(*Root)
	snap.Vector["a"], snap.Clock = 20, 20
	snap.Tree.SetStamped([]string{"from", "a"}, "v", 20, "a")
	for _, tc := range []struct {
		own     int
		refused bool
	}{{5, true}, {0, false}} {
		fs := vfs.NewMem(1)
		n, err := Open(Config{Name: "b", FS: fs})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < tc.own; i++ {
			if err := n.Set(fmt.Sprintf("own/k%d", i), "mine"); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		// The parent's installSnapshot had no Ahead field: its entry
		// decodes as one with Ahead nil, and is appended as such.
		appendRecord(t, fs, &installSnapshot{Snap: snap})

		n, err = Open(Config{Name: "b", FS: fs})
		if tc.refused {
			if err == nil {
				n.Close()
			}
			if !errors.Is(err, ErrInstallRegress) || !strings.Contains(err.Error(), fmt.Sprintf("entry %d", tc.own+1)) {
				t.Fatalf("Open over an install that drops %d own updates: %v, want ErrInstallRegress at entry %d", tc.own, err, tc.own+1)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := n.Vector(); v["a"] != 20 || len(v) != 1 {
			t.Errorf("replayed install left vector %v, want a:20", v)
		}
		n.Close()
	}
}

// appendRecord appends u to the store's one log file as a self-describing
// log record, the form a build writes before log files had heads.
func appendRecord(t *testing.T, fs vfs.FS, u core.Update) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var logName string
	for _, name := range names {
		if strings.HasPrefix(name, "logfile") {
			logName = name
		}
	}
	res, err := wal.Replay(fs, logName, 0, wal.ReplayOptions{}, func(uint64, []byte) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	res.NextSeq = max(res.NextSeq, 1) // a fresh store's log, holding its head alone
	l, err := wal.Open(fs, logName, res, wal.Options{Head: res.Head})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := pickle.Marshal(&struct{ U core.Update }{u})
	if err == nil {
		_, err = l.Append(payload)
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestUpgradeKeepsParentLogTail: a group member that opens the parent
// build's directory checkpoints the parent's log out before it serves. That
// log holds updates the member originated and no member has acknowledged
// since it opened, so the checkpoint archives it: its entries are still
// there for an install over them, though a member that is only behind is
// served the root.
func TestUpgradeKeepsParentLogTail(t *testing.T) {
	golden := readDir(t, goldenDir)
	want := logHistory(t, copyDir(t, golden), "logfile4")
	cfg := compatConfig(copyDir(t, golden))
	cfg.GroupConfig = groupOf(1, "a", "b")
	n, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if v := n.Store().Version(); v != 5 {
		t.Fatalf("opened at version %d, want 5: the parent's log re-headed", v)
	}
	if vs, err := checkpoint.ArchivedLogs(cfg.FS); err != nil || len(vs) != 1 || vs[0] != 4 {
		t.Fatalf("archived logs %v (%v), want [4]", vs, err)
	}
	if got := historyOf(t, n.Store()); got != want {
		t.Errorf("the archived trail holds\n%s\nwant the parent's log\n%s", got, want)
	}
	c, err := n.catchupFor(map[string]uint64{"a": 61})
	if err != nil || c.Root == nil {
		t.Errorf("catch-up of a member behind the re-headed log: root %v, %d entries, %v; want the root", c.Root != nil, len(c.Entries), err)
	}
}
