package bench

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestAllExperimentsQuick runs every experiment end to end in quick mode,
// checking each produces a non-empty, well-formed table.
func TestAllExperimentsQuick(t *testing.T) {
	for _, ex := range All() {
		ex := ex
		t.Run(ex.ID, func(t *testing.T) {
			tables, err := ex.Run(Env{Quick: true, DBEntries: 300})
			if err != nil {
				t.Fatal(err)
			}
			if len(tables) == 0 {
				t.Fatal("no tables")
			}
			for _, tb := range tables {
				if len(tb.Rows) == 0 || len(tb.Header) == 0 {
					t.Errorf("table %s empty", tb.ID)
				}
				out := tb.String()
				if !strings.Contains(out, tb.ID) {
					t.Errorf("render missing id: %s", out)
				}
			}
		})
	}
}

// TestE1NoDiskDuringEnquiries verifies the paper's core claim as a hard
// assertion: enquiries touch no disk.
func TestE1NoDiskDuringEnquiries(t *testing.T) {
	tables, err := E1(Env{Quick: true, DBEntries: 200})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[0] == "disk I/O during enquiries" && row[2] != "0" {
			t.Errorf("enquiries performed disk I/O: %v", row)
		}
	}
}

// TestE2OneSyncPerUpdate asserts the design's defining cost.
func TestE2OneSyncPerUpdate(t *testing.T) {
	tables, err := E2(Env{Quick: true, DBEntries: 200})
	if err != nil {
		t.Fatal(err)
	}
	note := tables[0].Notes[0]
	if !strings.Contains(note, "syncs per update = 1.00") {
		t.Errorf("unexpected syncs per update: %s", note)
	}
}

// TestE5GroupCommitShape asserts the throughput experiment's shape: the
// base-design arm (writers taking turns) pays exactly one sync per update,
// and the default pipeline under the same eight writers shares syncs.
func TestE5GroupCommitShape(t *testing.T) {
	tables, err := E5(Env{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	syncs := map[string]float64{}
	for _, row := range tables[0].Rows {
		syncs[row[0]], _ = strconv.ParseFloat(row[3], 64)
	}
	for _, base := range []string{"1 writer, base design", "8 writers, base design"} {
		if syncs[base] != 1.00 {
			t.Errorf("%s: %.2f syncs/update, want 1.00", base, syncs[base])
		}
	}
	if g, ok := syncs["8 writers, group commit"]; !ok || g >= 1 {
		t.Errorf("8 writers through the default pipeline: %.2f syncs/update, want < 1", g)
	}
}

// TestE8CoarseLockStallsEnquiries asserts the locking ablation is not
// vacuous: an enquiry issued mid-commit returns at memory speed against the
// store, and waits out the disk write behind the harness's coarse lock.
func TestE8CoarseLockStallsEnquiries(t *testing.T) {
	tables, err := E8(Env{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	rows := tables[0].Rows
	paper, err1 := time.ParseDuration(rows[0][1])
	coarse, err2 := time.ParseDuration(rows[1][1])
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable p50s %q, %q", rows[0][1], rows[1][1])
	}
	if coarse < 10*paper {
		t.Errorf("enquiry p50 behind the coarse lock %v is under 10x the paper row's %v", coarse, paper)
	}
}

// TestE9NoAckedLoss asserts the reliability invariant numerically.
func TestE9NoAckedLoss(t *testing.T) {
	tables, err := E9(Env{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[0] == "this design" {
			if row[1] != "0" || row[2] != "0" || row[3] != "0" {
				t.Errorf("reliability violated: %v", row)
			}
		}
		if row[0] == "ad hoc in-place" {
			corrupt, _ := strconv.Atoi(row[4])
			broken, _ := strconv.Atoi(row[1])
			if corrupt+broken == 0 {
				t.Errorf("ad hoc baseline never corrupted; crash model not biting: %v", row)
			}
		}
	}
}

// TestE13LosesOnlyUnpropagated asserts the §4 replica-restore property.
func TestE13LosesOnlyUnpropagated(t *testing.T) {
	tables, err := E13(Env{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[1] != row[2] {
			t.Errorf("expected %q, measured %q (%s)", row[1], row[2], row[0])
		}
	}
}

func TestHist(t *testing.T) {
	var h Hist
	for i := 1; i <= 100; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.N() != 100 {
		t.Errorf("N = %d", h.N())
	}
	if got := h.Percentile(50); got != 50*time.Millisecond {
		t.Errorf("p50 = %v", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("p100 = %v", got)
	}
	if got := h.Max(); got != 100*time.Millisecond {
		t.Errorf("max = %v", got)
	}
	if got := h.Mean(); got != 50500*time.Microsecond {
		t.Errorf("mean = %v", got)
	}
}

func TestFormatters(t *testing.T) {
	cases := map[time.Duration]string{
		0:                      "0",
		500 * time.Nanosecond:  "500ns",
		1500 * time.Nanosecond: "1.5µs",
		2 * time.Millisecond:   "2.0ms",
		3 * time.Second:        "3.00s",
		2 * time.Minute:        "2.0min",
	}
	for d, want := range cases {
		if got := fmtDur(d); got != want {
			t.Errorf("fmtDur(%v) = %q, want %q", d, got, want)
		}
	}
	if got := fmtBytes(512); got != "512B" {
		t.Errorf("fmtBytes = %q", got)
	}
	if got := fmtBytes(2 << 20); got != "2.00MB" {
		t.Errorf("fmtBytes = %q", got)
	}
}
