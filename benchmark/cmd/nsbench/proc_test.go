package main

import "testing"

func TestParseProcStat(t *testing.T) {
	// A command name with spaces and parentheses, as the kernel prints it.
	const stat = "4242 (ns d) (x)) S 1 4242 4242 0 -1 4194560 1234 0 0 0 731 269 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 2143420159 0 0 0 17 1 0 0 0 0 0\n"
	got, err := parseProcStat([]byte(stat))
	if err != nil || got != 1000 {
		t.Errorf("parseProcStat = %d, %v; want 1000 ticks", got, err)
	}
	for _, bad := range []string{"", "1 (nsd", "1 (nsd) S 1 2 3", "1 (nsd) S 1 2 3 4 5 6 7 8 9 10 x 12 13"} {
		if _, err := parseProcStat([]byte(bad)); err == nil {
			t.Errorf("parseProcStat(%q) did not fail", bad)
		}
	}
}

func TestParseStatusKB(t *testing.T) {
	const status = "Name:\tnsd\nVmPeak:\t 1234567 kB\nVmHWM:\t   87412 kB\nVmRSS:\t   80000 kB\n"
	if got, err := parseStatusKB([]byte(status), "VmHWM"); err != nil || got != 87412 {
		t.Errorf("VmHWM = %d, %v; want 87412", got, err)
	}
	if got, err := parseStatusKB([]byte(status), "VmRSS"); err != nil || got != 80000 {
		t.Errorf("VmRSS = %d, %v; want 80000", got, err)
	}
	for _, bad := range []string{"", "VmRSS:\t1 kB\n", "VmHWM:\t12\n", "VmHWM:\t12 MB\n", "VmHWM:\tx kB\n"} {
		if _, err := parseStatusKB([]byte(bad), "VmHWM"); err == nil {
			t.Errorf("parseStatusKB(%q, VmHWM) did not fail", bad)
		}
	}
}

func TestParseHostStat(t *testing.T) {
	const stat = "cpu  100 5 50 800 20 0 5 20 7 3\ncpu0 50 2 25 400 10 0 2 10 3 1\n"
	total, steal, err := parseHostStat([]byte(stat))
	if err != nil || total != 1000 || steal != 20 {
		t.Errorf("parseHostStat = %d, %d, %v; want 1000 total (guest excluded), 20 stolen", total, steal, err)
	}
	for _, bad := range []string{"", "cpu 1 2 3\n", "intr 1 2 3 4 5 6 7 8 9\n", "cpu 1 2 3 4 5 6 7 x 9\n"} {
		if _, _, err := parseHostStat([]byte(bad)); err == nil {
			t.Errorf("parseHostStat(%q) did not fail", bad)
		}
	}
}

func TestMetricsSnapshot(t *testing.T) {
	const before = `{"core_updates": 10, "wal_append_bytes": 1890,
		"core_update_commit_ns": {"count": 10, "sum": 5000, "mean": 500, "p50": 512, "p90": 512, "p99": 512, "max": 900}}`
	const after = `{"core_updates": 30, "wal_append_bytes": 5670, "core_log_shards": 1,
		"core_update_commit_ns": {"count": 30, "sum": 17000, "mean": 566, "p50": 512, "p90": 1024, "p99": 1024, "max": 1500}}`
	a, err := parseMetrics([]byte(before))
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseMetrics([]byte(after))
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(a, b, "core_updates"); got != 20 {
		t.Errorf("delta(core_updates) = %v, want 20", got)
	}
	if got := delta(a, b, "wal_append_bytes") / delta(a, b, "core_updates"); got != 189 {
		t.Errorf("log bytes per update = %v, want 189", got)
	}
	if got := histMeanDelta(a, b, "core_update_commit_ns"); got != 600 {
		t.Errorf("histMeanDelta = %v, want (17000-5000)/(30-10) = 600", got)
	}
	if got := b.hist("core_update_commit_ns").Max; got != 1500 {
		t.Errorf("hist max = %v, want 1500", got)
	}
	// A series the server never registered, and a series of the other shape,
	// read as zero instead of failing the run.
	if b.num("replica_group_pushes") != 0 || b.num("core_update_commit_ns") != 0 || b.hist("core_updates").Count != 0 {
		t.Error("an absent or differently shaped series did not read as zero")
	}
	if got := histMeanDelta(a, a, "core_update_commit_ns"); got != 0 {
		t.Errorf("histMeanDelta with no new observations = %v, want 0", got)
	}
	if _, err := parseMetrics([]byte("<html>")); err == nil {
		t.Error("parseMetrics accepted something that is not JSON")
	}
}

func TestSyncsPerUpdatePicksTheSeriesTheLogUses(t *testing.T) {
	a, _ := parseMetrics([]byte(`{"core_updates": 0, "wal_flushes": 0, "wal_epochs": 0, "core_log_shards": 1}`))
	single, _ := parseMetrics([]byte(`{"core_updates": 100, "wal_flushes": 100, "wal_epochs": 0, "core_log_shards": 1}`))
	sharded, _ := parseMetrics([]byte(`{"core_updates": 100, "wal_flushes": 400, "wal_epochs": 25, "core_log_shards": 4}`))
	if got := syncsPerUpdate(a, single); got != 1 {
		t.Errorf("single log: %v syncs per update, want 1", got)
	}
	if got := syncsPerUpdate(a, sharded); got != 0.25 {
		t.Errorf("sharded log: %v syncs per update, want 0.25 (epochs, not per-stream flushes)", got)
	}
}

func TestFsKindFrom(t *testing.T) {
	const mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /dev/shm tmpfs rw 0 0\n/dev/vdb /data xfs rw 0 0\nshort\n"
	for path, want := range map[string]string{
		"/root/repo/benchmark/out": "ext4",
		"/dev/shm/nsbench":         "tmpfs",
		"/data":                    "xfs",
		"/database/x":              "ext4",
	} {
		if got := fsKindFrom(mounts, path); got != want {
			t.Errorf("fsKindFrom(%s) = %s, want %s", path, got, want)
		}
	}
	if got := fsKindFrom("", "/x"); got != "unknown" {
		t.Errorf("fsKindFrom with no mounts = %s", got)
	}
}
