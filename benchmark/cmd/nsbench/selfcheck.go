package main

import (
	"fmt"
	"os"
)

// rawCounterpart names the uncalibrated value behind each _rel metric; the
// self-check prints both spreads side by side, which is the evidence that
// dividing by the echo is worth its cost.
var rawCounterpart = map[string]string{
	"read_rel":  "raw.read_p50_us",
	"write_rel": "raw.write_p50_us",
	"cpu_rel":   "raw.nsd_cpu_us_per_op",
}

// runSelfcheck runs every workload passes times with a different seed each
// time, assigns the passes alternately to two sets, and holds the benchmark
// to its own bounds the way the driver will: set B's median may not be worse
// than set A's by more than the bound, and the interquartile spread of all
// passes (setup_s excepted) must stay inside the bound too.
func runSelfcheck(o options, passes int) int {
	if passes < 10 || passes%2 != 0 {
		fmt.Fprintln(os.Stderr, "nsbench: -selfcheck needs an even -passes of at least 10")
		return 2
	}
	o.trace = false
	series := map[string]map[string][]float64{} // workload → metric → one value per pass
	failures := 0
collect:
	for p := 0; p < passes; p++ {
		for i := range workloads {
			wl := &workloads[i]
			if o.workload != "" && o.workload != wl.name {
				continue
			}
			po := o
			po.seed = o.seed + uint64(p)
			res, err := run(po, wl)
			if err == nil && !res.correct {
				err = fmt.Errorf("%d of %d checks failed: %v", res.failed, res.attempted, res.notes)
			}
			if err != nil {
				// A failed run fails the self-check, but the passes
				// already made are still worth reading.
				fmt.Fprintf(os.Stderr, "nsbench: selfcheck pass %d %s: %v\n", p, wl.name, err)
				failures++
				break collect
			}
			if series[wl.name] == nil {
				series[wl.name] = map[string][]float64{}
			}
			for name, v := range res.metrics {
				series[wl.name][name] = append(series[wl.name][name], v)
			}
			fmt.Fprintf(os.Stderr, "pass %d/%d %s done\n", p+1, passes, wl.name)
		}
	}

	fmt.Printf("# nsbench selfcheck: %d passes per workload, seeds %d..%d, seconds=%d, calibration_version=%d\n",
		passes, o.seed, o.seed+uint64(passes)-1, o.seconds, calibrationVersion)
	fmt.Printf("%-8s %-22s %12s %12s %8s %8s %8s  %s\n", "workload", "metric", "median A", "median B", "gap %", "iqr %", "bound %", "verdict")
	for i := range workloads {
		wl := workloads[i].name
		if series[wl] == nil {
			continue
		}
		for _, d := range endToEnd {
			vals := series[wl][d.name]
			var a, b []float64
			for p, v := range vals {
				if p%2 == 0 {
					a = append(a, v)
				} else {
					b = append(b, v)
				}
			}
			ma, mb := median(a), median(b)
			gap := (mb - ma) / ma // every end-to-end metric is lower-is-better
			spread := iqrShare(vals)
			verdict := "ok"
			switch {
			case gap > d.bound:
				verdict = "FAIL gap over bound"
				failures++
			case d.name != "setup_s" && spread > d.bound:
				verdict = "FAIL spread over bound"
				failures++
			case d.name != "setup_s" && spread > d.bound/3:
				verdict = "loose (spread over a third of the bound)"
			}
			fmt.Printf("%-8s %-22s %12.6g %12.6g %8.2f %8.2f %8.2f  %s\n", wl, d.name, ma, mb, 100*gap, 100*spread, 100*d.bound, verdict)
			if raw, ok := rawCounterpart[d.name]; ok {
				fmt.Printf("%-8s %-22s %12s %12s %8s %8.2f %8s  uncalibrated counterpart, median %.6g\n",
					wl, "  "+raw, "", "", "", 100*iqrShare(series[wl][raw]), "", median(series[wl][raw]))
			}
		}
	}
	fmt.Println("# restart time is not gated (README.md, Bounds); its spread over these passes, one restart each:")
	for i := range workloads {
		if vals := series[workloads[i].name]["raw.restart_s"]; len(vals) > 0 {
			fmt.Printf("%-8s %-22s median %.4g s, iqr %.2f %%\n", workloads[i].name, "  raw.restart_s", median(vals), 100*iqrShare(vals))
		}
	}
	fmt.Println("# every pass, in order (even passes are set A, odd passes set B):")
	for i := range workloads {
		wl := workloads[i].name
		for _, d := range endToEnd {
			if vals := series[wl][d.name]; len(vals) > 0 {
				fmt.Printf("%-8s %-22s %.5g\n", wl, d.name, vals)
			}
		}
	}
	if failures > 0 {
		fmt.Printf("# selfcheck FAILED: %d failed runs or metric/workload pairs outside their bounds\n", failures)
		return 1
	}
	fmt.Println("# selfcheck passed: two interleaved sets of runs of the same code agree within every bound")
	return 0
}
