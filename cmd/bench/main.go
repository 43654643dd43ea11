// Command bench runs the reproducible benchmark suites and gates against
// baselines (see BENCHMARKS.md).
//
// Usage:
//
//	bench -suite quick                          # run, write BENCH_<ts>.json
//	bench -suite paper -md report.md            # plus a markdown report
//	bench -suite quick -baseline baselines/bench-quick.json
//	                                            # compare; exit 1 on >15% regression
//	                                            # or on an evals/passes/steps count that rose
//	bench -suite quick -baseline b.json -threshold 0.10 -absolute
//	bench -list                                 # print suite cells, don't run
//
// With -baseline the markdown output is the comparison (regression)
// report; without it, a plain measurement table. The exit status is the
// CI contract: 0 clean, 1 regression, behavior change or more work (an
// <engine>.evals, .passes or .steps counter above the baseline's) vs
// baseline, 2 operational error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

func main() {
	var (
		suite     = flag.String("suite", "quick", "suite to run: quick|paper|full")
		trials    = flag.Int("trials", 0, "measured trials per cell (0 = default 3)")
		warmup    = flag.Int("warmup", 0, "warmup runs per cell (0 = default 1, negative = none)")
		out       = flag.String("out", "", "report path (default BENCH_<timestamp>.json in the working directory)")
		md        = flag.String("md", "", "write a markdown report/comparison to this file")
		baseline  = flag.String("baseline", "", "baseline report to compare against")
		threshold = flag.Float64("threshold", 0, "per-cell regression threshold as a fraction (0 = default 0.15)")
		absolute  = flag.Bool("absolute", false, "compare raw wall times instead of calibration-normalized scores")
		list      = flag.Bool("list", false, "list the suite's cells and exit")
		quiet     = flag.Bool("q", false, "suppress per-cell progress output")
	)
	flag.Parse()

	if err := validateSuite(*suite); err != nil {
		fatal(err)
	}
	cells, err := bench.Suite(*suite)
	if err != nil {
		fatal(err)
	}
	if *list {
		for _, c := range cells {
			fmt.Println(c.Key())
		}
		return
	}

	opt := bench.Options{Trials: *trials, Warmup: *warmup}
	if !*quiet {
		opt.Progress = os.Stderr
	}
	now := time.Now()
	rep, err := bench.Run(*suite, cells, opt, now)
	if err != nil {
		fatal(err)
	}

	path := *out
	if path == "" {
		path = bench.Filename(now)
	}
	if err := rep.WriteFile(path); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d cells)\n", path, len(rep.Cells))

	if *baseline == "" {
		if err := emitMarkdown(*md, rep.WriteMarkdown); err != nil {
			fatal(err)
		}
		return
	}

	base, err := bench.ReadReportFile(*baseline)
	if err != nil {
		fatal(err)
	}
	cmp, err := bench.Compare(rep, base, bench.CompareOptions{
		Threshold: *threshold, Absolute: *absolute,
	})
	if err != nil {
		fatal(err)
	}
	if err := emitMarkdown(*md, cmp.WriteMarkdown); err != nil {
		fatal(err)
	}
	if *md == "" {
		// No explicit report target: the comparison goes to stdout so the
		// gate's verdict is always visible.
		if err := cmp.WriteMarkdown(os.Stdout); err != nil {
			fatal(err)
		}
	}
	if err := cmp.Gate(); err != nil {
		fmt.Fprintf(os.Stderr, "bench: GATE FAILED: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "bench: gate passed (geo-mean speedup %.3fx over %d cells)\n",
		cmp.GeoMeanSpeedup, len(cmp.Cells))
}

// validateSuite rejects unknown -suite names with a one-line usage hint
// listing the accepted suites.
func validateSuite(name string) error {
	for _, s := range bench.SuiteNames() {
		if s == name {
			return nil
		}
	}
	return fmt.Errorf("unknown suite %q; usage: -suite %s", name, strings.Join(bench.SuiteNames(), "|"))
}

// emitMarkdown writes via render to path when path is non-empty.
func emitMarkdown(path string, render func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = render(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "bench: %v\n", err)
	os.Exit(2)
}
