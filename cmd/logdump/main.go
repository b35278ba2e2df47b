// Command logdump inspects a small database's disk directory: the version
// files, checkpoints and redo logs of the paper's §3 protocol. It decodes
// pickled data generically (no knowledge of the application's Go types), so
// it works on any database this library wrote — the audit-trail reader the
// paper's §4 gestures at ("the log files form a complete audit trail for
// the database").
//
// Usage:
//
//	logdump -dir /var/lib/nsd               # summarize the directory
//	logdump -dir /var/lib/nsd -log 3        # dump logfile3's entries
//	logdump -dir /var/lib/nsd -checkpoint 3 # dump checkpoint 3's delta chain and contents
//	logdump -dir /var/lib/nsd -stats        # payload-size histograms per log
//	logdump -dir /var/lib/nsd -stats -log 3 # histogram for one log file
//	logdump -dir /var/lib/nsd -flight       # decode the flight-recorder ring
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"smalldb/internal/checkpoint"
	"smalldb/internal/obs"
	"smalldb/internal/pickle"
	"smalldb/internal/vfs"
	"smalldb/internal/wal"
)

func main() {
	var (
		dir    = flag.String("dir", "", "database directory (required)")
		logV   = flag.Uint64("log", 0, "dump the entries of logfile<N>")
		archV  = flag.Uint64("archive", 0, "dump the entries of archive-logfile<N> (§4 audit trail)")
		cpV    = flag.Uint64("checkpoint", 0, "dump checkpoint<N>'s chain (full base + deltas, header by header) and its own contents")
		maxLen = flag.Int("max", 0, "dump at most this many log entries (0 = all)")
		stats  = flag.Bool("stats", false, "print entry-count, byte and payload-size histogram summaries instead of entries")
		flight = flag.Bool("flight", false, "decode the crash-surviving flight-recorder ring (the black box)")
	)
	flag.Parse()
	if *dir == "" {
		fmt.Fprintln(os.Stderr, "logdump: -dir is required")
		os.Exit(2)
	}
	fs, err := vfs.NewOS(*dir)
	if err != nil {
		fatal("%v", err)
	}

	switch {
	case *flight:
		dumpFlight(fs)
	case *stats && *logV > 0:
		statsLogFile(fs, checkpoint.LogName(*logV))
	case *stats && *archV > 0:
		statsLogFile(fs, checkpoint.ArchiveLogName(*archV))
	case *stats:
		statsAll(fs)
	case *logV > 0:
		dumpLogFile(fs, checkpoint.LogName(*logV), *maxLen)
	case *archV > 0:
		dumpLogFile(fs, checkpoint.ArchiveLogName(*archV), *maxLen)
	case *cpV > 0:
		dumpCheckpoint(fs, *cpV)
	default:
		summarize(fs)
	}
}

func summarize(fs vfs.FS) {
	names, err := fs.List()
	if err != nil {
		fatal("%v", err)
	}
	fmt.Println("directory contents:")
	for _, n := range names {
		size, _ := fs.Stat(n)
		fmt.Printf("  %-20s %8d bytes\n", n, size)
	}
	for _, vf := range []string{"version", "newversion"} {
		if data, err := vfs.ReadFile(fs, vf); err == nil {
			fmt.Printf("%s: %s\n", vf, strings.TrimSpace(string(data)))
		}
	}
	// Count entries of each log (current and archived) without decoding
	// payloads.
	for _, n := range names {
		if !strings.HasPrefix(n, "logfile") && !strings.HasPrefix(n, "archive-logfile") {
			continue
		}
		res, err := wal.Replay(fs, n, 0, wal.ReplayOptions{}, func(uint64, []byte) error { return nil })
		switch {
		case err != nil:
			fmt.Printf("%s: %v\n", n, err)
		case res.Entries == 0:
			fmt.Printf("%s: empty\n", n)
		default:
			fmt.Printf("%s: %d entries (seq %d..%d)\n", n, res.Entries, res.LastSeq-uint64(res.Entries)+1, res.LastSeq)
		}
	}
}

// statsAll prints a payload-size summary line for every log in the
// directory, current and archived.
func statsAll(fs vfs.FS) {
	names, err := fs.List()
	if err != nil {
		fatal("%v", err)
	}
	found := false
	for _, n := range names {
		if !strings.HasPrefix(n, "logfile") && !strings.HasPrefix(n, "archive-logfile") {
			continue
		}
		found = true
		statsLogFile(fs, n)
	}
	if !found {
		fmt.Println("no log files")
	}
}

// statsLogFile replays one log, feeding payload sizes into a histogram,
// and prints count/bytes/percentile summaries plus the distribution.
func statsLogFile(fs vfs.FS, name string) {
	size, err := fs.Stat(name)
	if err != nil {
		fatal("%v", err)
	}
	// Skip damaged entries so a partly unreadable log still summarizes.
	var h obs.Histogram
	var first, last uint64
	var forms [2]struct{ n, bytes int64 } // self-describing, table-relative
	res, err := wal.Replay(fs, name, 0, wal.ReplayOptions{SkipDamaged: true}, func(seq uint64, payload []byte) error {
		if first == 0 {
			first = seq
		}
		last = seq
		h.Observe(int64(len(payload)))
		f := &forms[0]
		if pickle.IsTableRelative(payload) {
			f = &forms[1]
		}
		f.n++
		f.bytes += int64(len(payload))
		return nil
	})
	if err != nil {
		fatal("replaying %s: %v", name, err)
	}
	s := h.Snapshot()
	if s.Count == 0 {
		fmt.Printf("%s: empty (%d bytes on disk)\n", name, size)
		return
	}
	fmt.Printf("%s: %d entries (seq %d..%d), %d bytes on disk (%.1f%% framing overhead)\n",
		name, s.Count, first, last, size, overheadPct(size, s.Sum))
	fmt.Printf("  payload sizes: %s\n", s.SizeString())
	fmt.Printf("  head: %d-byte type table; entries: %d self-describing (mean %.1f B), %d table-relative (mean %.1f B)\n",
		len(res.Head), forms[0].n, float64(forms[0].bytes)/float64(max(forms[0].n, 1)),
		forms[1].n, float64(forms[1].bytes)/float64(max(forms[1].n, 1)))
	if res.Truncated {
		fmt.Printf("  (torn tail entry discarded at offset %d)\n", res.GoodSize)
	}
	if res.Damaged > 0 {
		fmt.Printf("  (%d damaged entries skipped)\n", res.Damaged)
	}
	fmt.Print(s.Bar(40, sizeFmt))
}

func sizeFmt(v int64) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%dMB", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dKB", v>>10)
	default:
		return fmt.Sprintf("%dB", v)
	}
}

func overheadPct(disk, payload int64) float64 {
	if disk <= 0 {
		return 0
	}
	return 100 * float64(disk-payload) / float64(disk)
}

var errStop = fmt.Errorf("stop")

// printHead prints, with ids, the type table a log file's entries are
// pickled against, and returns it.
func printHead(fs vfs.FS, name string) *pickle.Table {
	head, err := wal.ReadHead(fs, name)
	var tab *pickle.Table
	if err == nil {
		tab, err = pickle.ParseTable(head)
	}
	switch {
	case err != nil:
		fmt.Printf("%s: head unreadable: %v\n", name, err)
	case tab == nil:
		fmt.Printf("%s: no head; entries are self-describing\n", name)
	default:
		fmt.Printf("%s: %d-byte head, type table:\n%s", name, len(head), tab)
	}
	return tab
}

// formatEntry renders an entry of either form; a failure is a note on the
// entry, not an error.
func formatEntry(tab *pickle.Table, payload []byte) string {
	v, err := tab.UnmarshalAny(payload)
	if err != nil {
		return fmt.Sprintf("%d bytes (undecodable: %v)", len(payload), err)
	}
	return pickle.Format(v)
}

// dumpLogFile prints one log's head and then its entries, in sequence order.
func dumpLogFile(fs vfs.FS, name string, max int) {
	tab := printHead(fs, name)
	n := 0
	res, err := wal.Replay(fs, name, 0, wal.ReplayOptions{}, func(seq uint64, payload []byte) error {
		if max > 0 && n >= max {
			return errStop
		}
		n++
		fmt.Printf("entry %d: %s\n", seq, formatEntry(tab, payload))
		return nil
	})
	if err != nil && err != errStop {
		fatal("replaying %s: %v", name, err)
	}
	if n == 0 {
		fmt.Printf("%s: empty\n", name)
	}
	if res.Truncated {
		fmt.Printf("(torn tail entry discarded at offset %d)\n", res.GoodSize)
	}
}

// dumpFlight decodes the durable image of the flight-recorder ring: the
// last events the daemon recorded before it (or its power) died.
func dumpFlight(fs vfs.FS) {
	events, err := obs.ReadFlight(fs, "")
	if err != nil {
		fatal("%v", err)
	}
	if len(events) == 0 {
		fmt.Println("flight recorder: no events")
		return
	}
	fmt.Printf("flight recorder: %d events\n", len(events))
	for _, e := range events {
		fmt.Println(e.String())
	}
}

// dumpCheckpoint renders version v's checkpoint chain — the full base plus
// every delta recovery applies on top of it, header by header — then the
// decoded contents of version v's own file. A broken chain (a missing or
// unreadable link) reports which link broke instead of dying mid-decode.
func dumpCheckpoint(fs vfs.FS, v uint64) {
	chain, err := checkpoint.ChainOf(fs, v)
	if err != nil {
		fatal("%v", err)
	}
	if len(chain) == 1 {
		fmt.Printf("checkpoint %d: full image\n", v)
	} else {
		fmt.Printf("checkpoint %d: chain of %d files (full base %d + %d deltas)\n",
			v, len(chain), chain[0], len(chain)-1)
	}
	var prevNext uint64
	for i, cv := range chain {
		name := checkpoint.CheckpointName(cv)
		if i > 0 {
			name = checkpoint.DeltaName(cv)
		}
		size, serr := fs.Stat(name)
		if serr != nil {
			fatal("chain link %s: %v", name, serr)
		}
		hdr, derr := decodeFile(fs, name)
		if derr != nil {
			fatal("chain link %s (%d bytes): undecodable: %v", name, size, derr)
		}
		if i == 0 {
			fmt.Printf("  %-18s %9d bytes  full base, next-seq %s\n",
				name, size, fieldOf(hdr, "NextSeq"))
		} else {
			note := ""
			if from, ok := fieldUint(hdr, "FromSeq"); ok && prevNext != 0 && from != prevNext {
				note = fmt.Sprintf("  (DISCONTINUOUS: parent ends at seq %d)", prevNext)
			}
			fmt.Printf("  %-18s %9d bytes  delta, parent %s, seqs %s..%s, %s subtree ops%s\n",
				name, size, fieldOf(hdr, "Parent"), fieldOf(hdr, "FromSeq"),
				fieldOf(hdr, "NextSeq"), fieldOf(hdr, "Subtrees"), note)
		}
		if n, ok := fieldUint(hdr, "NextSeq"); ok {
			prevNext = n
		}
	}
	name := checkpoint.CheckpointName(v)
	if len(chain) > 1 {
		name = checkpoint.DeltaName(v)
	}
	val, err := decodeFile(fs, name)
	if err != nil {
		fatal("decoding %s: %v", name, err)
	}
	fmt.Printf("%s:\n%s\n", name, pickle.Format(val))
}

// decodeFile generically decodes the single pickled value in a file.
func decodeFile(fs vfs.FS, name string) (any, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pickle.NewDecoder(f).DecodeAny()
}

// fieldOf renders one named field of a generically decoded struct, "?" when
// the file's header doesn't carry it.
func fieldOf(v any, field string) string {
	if p, ok := v.(*any); ok {
		v = *p // checkpoint headers pickle as pointers
	}
	s, ok := v.(pickle.GenericStruct)
	if !ok {
		return "?"
	}
	for _, f := range s.Fields {
		if f.Name == field {
			return fmt.Sprint(f.Value)
		}
	}
	return "?"
}

// fieldUint extracts a named integer field of a generically decoded struct.
func fieldUint(v any, field string) (uint64, bool) {
	n, err := strconv.ParseUint(fieldOf(v, field), 10, 64)
	return n, err == nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "logdump: "+format+"\n", args...)
	os.Exit(1)
}
