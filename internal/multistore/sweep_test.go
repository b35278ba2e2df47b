package multistore

import (
	"errors"
	"fmt"
	"testing"

	"smalldb/internal/vfs"
	"smalldb/internal/vfs/faultfs"
)

// The sweeps' workload: three partitions, updates interleaved across them,
// and one partition's checkpoint every few updates, from one goroutine.
var sweepParts = []string{"a", "b", "c"}

const (
	sweepUpdates = 18
	sweepCPEvery = 4
)

func sweepKey(k int) string { return fmt.Sprintf("k%03d", k) }

// sweepRun runs the workload on fs and closes the set. It reports, per
// partition, how many updates were attempted and how long a prefix of them
// was acknowledged (one past the last update whose Apply returned nil).
func sweepRun(fs vfs.FS) (attempted, acked map[string]int) {
	attempted, acked = map[string]int{}, map[string]int{}
	s, err := Open(tableConfig(fs, sweepParts...))
	if err != nil {
		return attempted, acked
	}
	defer s.Close()
	for i := 0; i < sweepUpdates; i++ {
		p := sweepParts[i%len(sweepParts)]
		k := attempted[p]
		attempted[p]++
		if s.Apply(p, &putRow{K: sweepKey(k), V: p}) == nil {
			acked[p] = k + 1
		}
		if i%sweepCPEvery == sweepCPEvery-1 {
			_ = s.Checkpoint(sweepParts[(i/sweepCPEvery)%len(sweepParts)])
		}
	}
	return attempted, acked
}

// checkPrefixes reopens fs and requires every partition to hold a prefix of
// its own updates, at least everything acknowledged and at most everything
// attempted.
func checkPrefixes(fs vfs.FS, attempted, acked map[string]int) error {
	s, err := Open(tableConfig(fs, sweepParts...))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer s.Close()
	for _, p := range sweepParts {
		var m int
		prefix := true
		if err := s.View(p, func(root any) error {
			rows := root.(*table).Rows
			m = len(rows)
			for k := 0; k < m; k++ {
				prefix = prefix && rows[sweepKey(k)] == p
			}
			return nil
		}); err != nil {
			return err
		}
		switch {
		case !prefix:
			return fmt.Errorf("partition %s holds %d rows that are not a prefix of its updates", p, m)
		case m < acked[p]:
			return fmt.Errorf("partition %s holds %d updates, %d were acknowledged", p, m, acked[p])
		case m > attempted[p]:
			return fmt.Errorf("partition %s holds %d updates, only %d were attempted", p, m, attempted[p])
		}
	}
	return nil
}

// TestCrashPointSweep crashes the workload before every file operation and
// recovers from the durable image.
func TestCrashPointSweep(t *testing.T) {
	probe := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never})
	sweepRun(probe)
	n := probe.OpCount()
	if n == 0 {
		t.Fatal("workload performed no file operations")
	}
	violations := 0
	for at := int64(0); at <= n; at++ {
		ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: at, TraceCap: 8})
		attempted, acked := sweepRun(ffs)
		if err := checkPrefixes(ffs.Snapshot(), attempted, acked); err != nil {
			violations++
			t.Errorf("crash at op %d/%d: %v\ntrace: %v", at, n, err, ffs.Trace())
		}
	}
	t.Logf("%d crash points, violations=%d", n+1, violations)
}

// TestSyncFailureSweep fails each sync of the workload in turn, then closes
// and reopens — both as the process left the disk and after a power failure
// — and requires every acknowledged update to be present.
func TestSyncFailureSweep(t *testing.T) {
	probe := vfs.NewCounting(vfs.NewMem(1))
	sweepRun(probe)
	syncs := probe.Syncs()
	if syncs == 0 {
		t.Fatal("workload performed no syncs")
	}
	boom := errors.New("injected sync failure")
	violations := 0
	for k := int64(1); k <= syncs; k++ {
		ffs := faultfs.New(vfs.NewMem(1), faultfs.Options{CrashAt: faultfs.Never, TraceCap: 8})
		ffs.FailSyncAt(k, boom)
		attempted, acked := sweepRun(ffs)
		ffs.ClearFaults() // the restart itself runs fault-free
		power := ffs.Snapshot()
		for _, reopen := range []struct {
			name string
			fs   vfs.FS
		}{{"restart", ffs}, {"power failure", power}} {
			if err := checkPrefixes(reopen.fs, attempted, acked); err != nil {
				violations++
				t.Errorf("sync %d/%d failed, %s: %v\ntrace: %v", k, syncs, reopen.name, err, ffs.Trace())
			}
		}
	}
	t.Logf("%d sync-failure points, violations=%d", syncs, violations)
}
