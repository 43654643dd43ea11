// Command bench is the work-counter gate (see BENCHMARKS.md): it runs
// every cell of the quick grid once, prints each cell's wall time and
// integers, and holds the integers to a baseline.
//
// Usage:
//
//	bench                                       # run and print
//	bench -baseline baselines/bench-quick.json  # exit 1 on any difference
//	bench -out baselines/bench-quick.json       # write the baseline (make baseline)
//
// The exit status is the CI contract: 0 clean, 1 a cell, size,
// detection count, K or work counter differs from the baseline, 2
// operational error. Wall time is never gated.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "", "baseline report to hold the run to")
	out := flag.String("out", "", "write the run's report (a baseline) to this path")
	flag.Parse()

	rep, err := bench.Run(bench.Quick())
	if err != nil {
		fatal(err)
	}
	for _, c := range rep.Cells {
		fmt.Printf("%-44s %9s  patterns %d faults %d detected %d pot_only %d k %d%s\n",
			c.Key, c.Wall.Round(time.Microsecond), c.Patterns, c.Faults, c.Detected, c.PotOnly, c.K, counters(c.Counters))
	}
	if *out != "" {
		if err := rep.WriteFile(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bench: wrote %s (%d cells)\n", *out, len(rep.Cells))
	}
	if *baseline == "" {
		return
	}
	base, err := bench.ReadReportFile(*baseline)
	if err != nil {
		fatal(err)
	}
	if err := bench.Compare(rep, base); err != nil {
		fmt.Fprintf(os.Stderr, "%v\nbench: GATE FAILED\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: gate passed (%d cells, every integer equal to %s)\n", len(rep.Cells), *baseline)
}

// counters renders a cell's work counters as " name value" pairs in
// name order.
func counters(m map[string]int64) string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s %d", n, m[n])
	}
	return b.String()
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
