// Command csim fault-simulates a synchronous sequential circuit.
//
// Usage:
//
//	csim -circuit design.bench -vectors tests.vec [flags]
//	csim -suite s5378 -random 1000 [flags]
//
// The circuit comes either from an ISCAS-89 style .bench file or from the
// built-in benchmark suite; vectors from a file (one line of 0/1/X per
// cycle) or a seeded random generator. The engine is one of the paper's
// variants (csim, csim-V, csim-M, csim-MV), the compiled bit-parallel
// engine (csim-C, alias "compiled": levelized straight-line code over
// packed 64-vector words, on -workers threads), the same kernel on the
// scheduler's worker count (csim-grid), the PROOFS baseline, or the
// serial oracle.
//
// Observability (see OBSERVABILITY.md): -metrics-out snapshots the metric
// registry to JSON, -trace-out writes a chrome://tracing phase trace,
// and -trace-faults records per-fault lifecycle events.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/iscas"
	"repro/internal/macro"
	"repro/internal/netcheck"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

func main() {
	var (
		circuitFile = flag.String("circuit", "", "path to a .bench netlist")
		suite       = flag.String("suite", "", "built-in benchmark name (e.g. s5378)")
		vectorFile  = flag.String("vectors", "", "path to a test vector file")
		randomN     = flag.Int("random", 0, "generate this many random vectors instead")
		seed        = flag.Int64("seed", 1, "random vector seed")
		engineName  = flag.String("engine", engine.CsimMV, strings.Join(engineNames(), " | "))
		workers     = flag.Int("workers", 0, "csim-C / csim-grid worker count (0: one thread for csim-C, scheduler-planned for csim-grid)")
		model       = flag.String("faults", "stuck", "fault model: stuck | stuck-all | transition")
		check       = flag.Bool("check", false, "verify netlist/fault-list/macro-plan invariants and exit without simulating")
		verbose     = flag.Bool("v", false, "list undetected faults")

		metricsOut  = flag.String("metrics-out", "", "write a metrics registry snapshot (JSON) to this file")
		traceOut    = flag.String("trace-out", "", "write a chrome://tracing phase trace (JSON) to this file")
		traceAlloc  = flag.Bool("trace-alloc", false, "sample allocation deltas at phase boundaries (with -trace-out)")
		traceFaults = flag.String("trace-faults", "", "record fault lifecycle events: 'all', fault IDs (3,17), or fault-name substrings")
	)
	flag.Parse()

	// Reject unknown names up front with the usage line listing the
	// accepted values, like an unknown flag: exit status 2.
	if err := validateSelections(*engineName, *model, *suite); err != nil {
		fmt.Fprintln(os.Stderr, "csim:", err)
		os.Exit(2)
	}
	if canon, ok := engineAliases[*engineName]; ok {
		*engineName = canon
	}

	// Any observability flag switches the layer on; without them every
	// probe stays on the nil fast path.
	var ob *obs.Observer
	var reg *obs.Registry
	var tr *obs.Tracer
	if *metricsOut != "" || *traceOut != "" || *traceFaults != "" {
		reg = obs.NewRegistry()
		tr = obs.NewTracer(reg)
		tr.AllocDeltas = *traceAlloc
		ob = &obs.Observer{Metrics: reg, Tracer: tr}
	}

	sp := ob.Span("parse")
	c, err := loadCircuit(*circuitFile, *suite)
	sp.End()
	if err != nil {
		fatal(err)
	}
	// Every loaded circuit passes the structural verifier: malformed input
	// dies here with a diagnostic instead of panicking inside an engine.
	if err := netcheck.AsError(netcheck.Check(c)); err != nil {
		fatal(err)
	}
	if *check {
		if err := runCheck(c, *model); err != nil {
			fatal(err)
		}
		return
	}
	vs, err := loadVectors(c, *vectorFile, *randomN, *seed)
	if err != nil {
		fatal(err)
	}
	sp = ob.Span("collapse")
	u, err := universe(c, *model)
	sp.End()
	if err != nil {
		fatal(err)
	}

	var flog *obs.FaultLog
	if *traceFaults != "" {
		ids, err := parseFaultFilter(*traceFaults, u, c)
		if err != nil {
			fatal(err)
		}
		flog = obs.NewFaultLog(u.NumFaults(), ids, 0)
		ob.Faults = flog
		if info, _ := engine.ByName(*engineName); info.Kind != "concurrent" {
			fmt.Fprintf(os.Stderr, "csim: warning: -trace-faults records nothing under engine %s (csim engines only)\n", *engineName)
		}
	}

	m, err := harness.Run(*engineName, u, vs, *workers, ob)
	if err != nil {
		fatal(err)
	}

	st := c.Stats()
	fmt.Printf("circuit:   %s (%d PI, %d PO, %d FF, %d gates)\n",
		c.Name, st.PIs, st.POs, st.DFFs, st.Gates)
	fmt.Printf("engine:    %s\n", m.Engine)
	if m.Workers > 0 {
		fmt.Printf("workers:   %d\n", m.Workers)
	}
	fmt.Printf("faults:    %d (%s)\n", m.Faults, *model)
	fmt.Printf("patterns:  %d\n", m.Patterns)
	fmt.Printf("detected:  %d (%.2f%%), potential-only: %d (%.2f%% incl.)\n",
		m.Detected, m.FltCvg(),
		m.PotOnly, 100*float64(m.Detected+m.PotOnly)/float64(max(1, m.Faults)))
	fmt.Printf("cpu:       %s s\n", harness.Seconds(m.CPU))
	if m.MemBytes > 0 {
		fmt.Printf("mem:       %s MB (fault structures, peak)\n", harness.Meg(m.MemBytes))
	}

	if flog != nil {
		printFaultEvents(flog, u, c)
	}
	if *metricsOut != "" {
		if err := writeTo(*metricsOut, reg.WriteJSON); err != nil {
			fatal(err)
		}
		fmt.Printf("metrics:   wrote %s\n", *metricsOut)
	}
	if *traceOut != "" {
		if err := writeTo(*traceOut, tr.WriteChrome); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:     wrote %s (load in chrome://tracing or Perfetto)\n", *traceOut)
	}

	if *verbose {
		res, err := serial.Simulate(context.Background(), u, vs) // authoritative listing
		if err != nil {
			fatal(err)
		}
		fmt.Println("undetected faults:")
		for i, f := range u.Faults {
			if !res.Detected[i] {
				fmt.Printf("  %s\n", f.Name(c))
			}
		}
	}
}

// parseFaultFilter resolves a -trace-faults spec against the universe:
// "all" tracks every fault (nil filter); otherwise a comma-separated mix
// of numeric fault IDs and fault-name substrings (matched against
// Fault.Name, e.g. "G10" matches G10/SA0 and G10/SA1).
func parseFaultFilter(spec string, u *faults.Universe, c *netlist.Circuit) ([]int32, error) {
	if spec == "all" {
		return nil, nil
	}
	var ids []int32
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		if n, err := strconv.Atoi(tok); err == nil {
			if n < 0 || n >= u.NumFaults() {
				return nil, fmt.Errorf("-trace-faults: fault ID %d out of range [0,%d)", n, u.NumFaults())
			}
			ids = append(ids, int32(n))
			continue
		}
		found := false
		for i := range u.Faults {
			if strings.Contains(u.Faults[i].Name(c), tok) {
				ids = append(ids, int32(i))
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("-trace-faults: no fault name contains %q", tok)
		}
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("-trace-faults: empty filter %q", spec)
	}
	return ids, nil
}

// printFaultEvents lists the recorded lifecycle events with fault and
// gate names resolved; long logs are elided after a prefix.
func printFaultEvents(flog *obs.FaultLog, u *faults.Universe, c *netlist.Circuit) {
	const maxPrint = 200
	events, clipped := flog.Events()
	note := ""
	if clipped {
		note = " (log limit hit; earliest events kept)"
	}
	fmt.Printf("fault lifecycle: %d events%s\n", len(events), note)
	for i, ev := range events {
		if i == maxPrint {
			fmt.Printf("  ... %d more (use -metrics-out and the API for the full log)\n", len(events)-maxPrint)
			break
		}
		vec := strconv.Itoa(int(ev.Vec))
		if ev.Vec < 0 {
			vec = "-"
		}
		fmt.Printf("  vec=%-5s fault=%-20s %-21s at %s\n",
			vec, u.Faults[ev.Fault].Name(c), ev.Kind, c.Gate(netlist.GateID(ev.Gate)).Name)
	}
}

// writeTo creates path and streams write into it.
func writeTo(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runCheck is the -check mode: beyond the structural circuit checks
// (already run on load), verify the selected fault model's universe and
// the macro plans every engine variant would extract, then report.
func runCheck(c *netlist.Circuit, model string) error {
	u, err := universe(c, model)
	if err != nil {
		return err
	}
	if err := netcheck.AsError(netcheck.CheckUniverse(u)); err != nil {
		return err
	}
	trivial := macro.Trivial(c)
	if err := netcheck.AsError(netcheck.CheckPlan(trivial)); err != nil {
		return err
	}
	plans := 1
	for _, reconv := range []bool{false, true} {
		var p *macro.Plan
		if reconv {
			p, err = macro.ExtractReconvergent(c, macro.DefaultMaxInputs)
		} else {
			p, err = macro.Extract(c, macro.DefaultMaxInputs)
		}
		if err != nil {
			return err
		}
		if err := netcheck.AsError(netcheck.CheckPlan(p)); err != nil {
			return err
		}
		if err := netcheck.AsError(netcheck.CheckPlanMaximal(p, macro.DefaultMaxInputs, reconv)); err != nil {
			return err
		}
		plans++
	}
	st := c.Stats()
	fmt.Printf("check:     %s OK (%d PI, %d PO, %d FF, %d gates; %d faults [%s]; %d plans verified)\n",
		c.Name, st.PIs, st.POs, st.DFFs, st.Gates, u.NumFaults(), model, plans)
	return nil
}

// engineAliases are the extra -engine spellings, by canonical name.
var engineAliases = map[string]string{"compiled": engine.CsimC}

// engineNames lists the accepted -engine values: every registered engine
// that simulates faults, then the aliases.
func engineNames() []string {
	names := engine.Names(func(e engine.Info) bool { return e.Kind != "good" })
	for alias := range engineAliases {
		names = append(names, alias)
	}
	return names
}

// modelNames are the accepted -faults values.
var modelNames = []string{"stuck", "stuck-all", "transition"}

// validateSelections rejects unknown -engine/-faults/-suite values with
// a one-line usage hint listing the accepted names.
func validateSelections(engineName, model, suite string) error {
	if names := engineNames(); !containsName(names, engineName) {
		return fmt.Errorf("unknown engine %q; usage: -engine %s", engineName, strings.Join(names, "|"))
	}
	if !containsName(modelNames, model) {
		return fmt.Errorf("unknown fault model %q; usage: -faults %s", model, strings.Join(modelNames, "|"))
	}
	if suite != "" && !containsName(iscas.Names(), suite) {
		return fmt.Errorf("unknown suite circuit %q; usage: -suite %s", suite, strings.Join(iscas.Names(), "|"))
	}
	return nil
}

func containsName(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

func loadCircuit(file, suite string) (*netlist.Circuit, error) {
	switch {
	case file != "" && suite != "":
		return nil, fmt.Errorf("use -circuit or -suite, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.ParseBench(file, f)
	case suite != "":
		return iscas.Get(suite)
	}
	return nil, fmt.Errorf("one of -circuit or -suite is required")
}

func loadVectors(c *netlist.Circuit, file string, n int, seed int64) (*vectors.Set, error) {
	switch {
	case file != "" && n > 0:
		return nil, fmt.Errorf("use -vectors or -random, not both")
	case file != "":
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return vectors.Parse(f, len(c.PIs))
	case n > 0:
		return vectors.Random(c, n, seed), nil
	}
	return nil, fmt.Errorf("one of -vectors or -random is required")
}

func universe(c *netlist.Circuit, model string) (*faults.Universe, error) {
	switch model {
	case "stuck":
		return faults.StuckCollapsed(c), nil
	case "stuck-all":
		return faults.StuckAll(c), nil
	case "transition":
		return faults.Transition(c), nil
	}
	return nil, fmt.Errorf("unknown fault model %q", model)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csim:", err)
	os.Exit(1)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
