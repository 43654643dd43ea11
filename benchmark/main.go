// Command benchmark is the repository's service-level benchmark: it brings
// csimd up in-process on loopback, drives it in a closed loop with the
// shipped service.Client, checks every job's detection counts against a
// second engine, and prints every end-to-end metric (or, with -trace 1,
// every per-layer metric) by name and unit. See README.md.
//
//	bash benchmark/run.sh -workload svc-tiny -seed 1 -seconds 18 -trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames())
		seed     = flag.Int64("seed", 1, "seed the run's inputs are generated from")
		seconds  = flag.Float64("seconds", 18, "length of the measured window")
		trace    = flag.Int("trace", 0, "1: traced run, reports the per-layer metrics and writes out/trace-<workload>.json")
		dir      = flag.String("dir", "benchmark", "the benchmark's directory (expected.json, out/)")
		out      = flag.String("out", "", "append this run's report to a set file")
		writeExp = flag.Bool("write-expected", false, "regenerate expected.json with the second engines and exit")
		repeat   = flag.Bool("check-repeat", false, "compare two set files given as arguments; exit 1 when a row differs")
	)
	flag.Parse()
	switch {
	case *writeExp:
		exitOn(writeExpected(*dir))
	case *repeat:
		if flag.NArg() != 2 {
			exitOn(fmt.Errorf("-check-repeat takes two set files"))
		}
		differ, err := checkRepeat(os.Stdout, flag.Arg(0), flag.Arg(1))
		exitOn(err)
		if differ {
			os.Exit(1)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			exitOn(fmt.Errorf("unknown workload %q (workloads: %s)", *name, workloadNames()))
		}
		rep, err := run(context.Background(), runConfig{
			workload: w, seed: *seed, seconds: *seconds, trace: *trace != 0, dir: *dir, started: processStart, setupFor: 2 * time.Second,
		})
		exitOn(err)
		if *out != "" {
			exitOn(appendReport(*out, rep))
		}
		exitOn(printReport(rep, *trace != 0))
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, " | ")
}

// printReport prints every metric by name and unit, then the result line
// the driver reads: end-to-end metrics untraced, per-layer metrics traced.
func printReport(rep *report, traced bool) error {
	fmt.Printf("workload %s seed %d window %gs host nproc=%d gomaxprocs=%d %s kernel %s\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Host.NProc, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Kernel)
	if rep.Plan != "" {
		fmt.Printf("plan %s\n", rep.Plan)
	}
	fmt.Printf("job_ms_tail is p%g over %d samples\n", rep.TailPercentile, rep.Samples)
	printMetrics(rep.EndToEnd)
	fmt.Printf("%-34s %14.6g ratio (%d of %d)\n", "failed_share", rep.FailedShare, rep.Failed, rep.Attempted)
	metrics := rep.EndToEnd
	if traced {
		printMetrics(rep.PerLayer)
		metrics = rep.PerLayer
	}
	line, err := json.Marshal(map[string]any{
		"correct": rep.Failed == 0, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printMetrics(ms map[string]value) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
