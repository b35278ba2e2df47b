// Command smalldb-bench regenerates every measurement reported in the
// paper's evaluation (§5 performance, §6 implementation size), printing
// paper-vs-measured tables.
//
// Usage:
//
//	smalldb-bench                 # run every experiment
//	smalldb-bench -run e2,e4,e9   # run a subset
//	smalldb-bench -quick          # small iteration counts (seconds, not minutes)
//	smalldb-bench -list           # list experiment ids
//
// The experiments run over the internal/disk model of the paper's 1987
// hardware. What the shipped daemon costs on this machine — end to end and
// layer by layer — is benchmark/'s nsbench.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"smalldb/internal/bench"
	"smalldb/internal/disk"
)

func main() {
	var (
		run     = flag.String("run", "", "comma-separated experiment ids (default: all)")
		quick   = flag.Bool("quick", false, "shrink iteration counts")
		entries = flag.Int("entries", 0, "database entries (default ≈1 MB worth)")
		seed    = flag.Int64("seed", 1987, "random seed")
		list    = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, ex := range bench.All() {
			fmt.Printf("  %-4s %s\n", ex.ID, ex.Title)
		}
		return
	}

	env := bench.Env{Out: os.Stdout, Quick: *quick, DBEntries: *entries, Seed: *seed}
	var ids []string
	if *run != "" {
		for _, id := range strings.Split(*run, ",") {
			ids = append(ids, strings.TrimSpace(id))
		}
	}
	prof := disk.MicroVAX
	fmt.Println("smalldb experiment harness — reproducing Birrell/Jones/Wobber, SOSP 1987")
	fmt.Printf("disk model: %s (%v/write op, %dKB/s streaming, CPU ×%.0f)\n",
		prof.Name, prof.PerOpWrite, prof.WriteBytesPerSec>>10, prof.CPUSlowdown)
	if err := bench.Run(env, ids...); err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		os.Exit(1)
	}
}
