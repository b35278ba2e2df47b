// Package bench is the experiment harness: it regenerates every
// measurement the paper reports (§5 performance, §6 code size), printing
// paper-vs-measured tables. Each experiment builds its own database on an
// in-memory file system metered by vfs.Metered with the MicroVAX profile,
// so runs are reproducible and the paper's *shape* — one disk write per
// update, checkpoint cost dominated by pickling, restart linear in log
// length — can be checked on modern hardware.
//
// Two numbers are reported for each measured quantity:
//
//   - measured: wall-clock on the machine running the experiment, with disk
//     time taken from the metered file system's accounting (the in-memory
//     FS itself is effectively free);
//   - 1987-equivalent: measured CPU time multiplied by CPUSlowdown, plus
//     modeled disk time — the number to put beside the paper's MicroVAX
//     figures.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"time"

	"smalldb/internal/vfs"
)

// MicroVAX is the disk calibrated against the paper's §5 measurements on a
// MicroVAX II: a log-entry write costs ~20 ms, and streaming a 1 MB
// checkpoint to disk ~5 s (≈200 KB/s), as does reading it back.
var MicroVAX = vfs.Profile{
	PerOpWrite:       20 * time.Millisecond,
	PerOpRead:        30 * time.Millisecond,
	WriteBytesPerSec: 200 << 10,
	ReadBytesPerSec:  200 << 10,
}

// CPUSlowdown is how many times slower the MicroVAX's CPU is than the
// machine running the experiment: pickling a typical update (~22 ms in the
// paper) and a 1 MB checkpoint (~55 s) land near the paper's numbers when
// measured CPU time is multiplied by it.
const CPUSlowdown = 2000

// Env parameterizes an experiment run.
type Env struct {
	// Out receives the experiment's tables.
	Out io.Writer
	// Seed fixes all randomness.
	Seed int64
	// DBEntries sizes the built database; the default approximates the
	// paper's 1 MB name server database.
	DBEntries int
	// ValueSize is the payload per entry.
	ValueSize int
	// Quick shrinks iteration counts for use from tests.
	Quick bool
}

// Defaults fills zero fields.
func (e Env) Defaults() Env {
	if e.Out == nil {
		e.Out = io.Discard
	}
	if e.Seed == 0 {
		e.Seed = 1987
	}
	if e.DBEntries == 0 {
		e.DBEntries = 8000 // ≈1 MB of tree at default value size
	}
	if e.ValueSize == 0 {
		e.ValueSize = 64
	}
	return e
}

func (e Env) iters(full, quick int) int {
	if e.Quick {
		return quick
	}
	return full
}

// Table is one experiment's result, printable as aligned text.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Fprint writes the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "\n%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// String renders the table.
func (t *Table) String() string {
	var sb strings.Builder
	t.Fprint(&sb)
	return sb.String()
}

// Hist collects latency samples.
type Hist struct {
	samples []time.Duration
}

// Add records one sample.
func (h *Hist) Add(d time.Duration) { h.samples = append(h.samples, d) }

// N reports the sample count.
func (h *Hist) N() int { return len(h.samples) }

// Mean reports the mean sample.
func (h *Hist) Mean() time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	var total time.Duration
	for _, s := range h.samples {
		total += s
	}
	return total / time.Duration(len(h.samples))
}

// Percentile reports the p-th percentile (0 < p <= 100).
func (h *Hist) Percentile(p float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), h.samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p/100*float64(len(sorted))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// Max reports the largest sample.
func (h *Hist) Max() time.Duration {
	var max time.Duration
	for _, s := range h.samples {
		if s > max {
			max = s
		}
	}
	return max
}

// Names generates count pseudo-random hierarchical names over a keyspace of
// the given size, deterministic in seed.
func Names(rng *rand.Rand, keyspace, count int) []string {
	out := make([]string, count)
	for i := range out {
		k := rng.Intn(keyspace)
		out[i] = NameFor(k)
	}
	return out
}

// NameFor maps an index to a stable hierarchical name, spreading entries
// over a three-level tree the way a name service spreads hosts over
// domains.
func NameFor(k int) string {
	return fmt.Sprintf("zone%d/host%d/attr%d", k%37, k/37%211, k)
}

// Value builds a deterministic payload of the given size.
func Value(rng *rand.Rand, size int) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, size)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// fmtDur renders a duration with sensible precision for tables.
func fmtDur(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1e3)
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d.Nanoseconds())/1e6)
	case d < time.Minute:
		return fmt.Sprintf("%.2fs", d.Seconds())
	default:
		return fmt.Sprintf("%.1fmin", d.Minutes())
	}
}

// fmtBytes renders a byte count.
func fmtBytes(n int64) string {
	switch {
	case n < 1<<10:
		return fmt.Sprintf("%dB", n)
	case n < 1<<20:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%.2fMB", float64(n)/(1<<20))
	}
}
