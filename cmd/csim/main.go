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
// engine (csim-C: levelized straight-line code over packed 64-vector
// words, one worker per 256 faults within the -workers budget, which
// defaults to the CPU count; csim-grid is the same run under another
// name), the PROOFS baseline, or the serial oracle.
//
// The run's non-zero work counters print on one "stats:" line.
// Observability (see OBSERVABILITY.md): -trace-out writes the run's
// flight record — parse, collapse, the compiled engines' decide, shard
// and merge events, and finish, in the JSON shape csimd's /debug serves
// — and -trace-faults records per-fault lifecycle events.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/csim"
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
		workers     = flag.Int("workers", runtime.NumCPU(), "csim-C / csim-grid processor budget: one worker per 256 faults at most")
		model       = flag.String("faults", "stuck", "fault model: stuck | stuck-all | transition")
		check       = flag.Bool("check", false, "verify netlist/fault-list/macro-plan invariants and exit without simulating")
		verbose     = flag.Bool("v", false, "list undetected faults")

		traceOut    = flag.String("trace-out", "", "write the run's flight record (JSON) to this file")
		traceFaults = flag.String("trace-faults", "", "record fault lifecycle events: 'all', fault IDs (3,17), or fault-name substrings")
	)
	flag.Parse()

	// Reject unknown names up front with the usage line listing the
	// accepted values, like an unknown flag: exit status 2.
	if err := validateSelections(*engineName, *model, *suite); err != nil {
		fmt.Fprintln(os.Stderr, "csim:", err)
		os.Exit(2)
	}

	// Each observability flag switches its sink on; without them every
	// probe stays on the nil fast path.
	var rec *obs.FlightRecorder
	if *traceOut != "" {
		rec = obs.NewFlightRecorder(0)
	}
	ob := &obs.Observer{Flight: rec}

	start := time.Now()
	c, err := loadCircuit(*circuitFile, *suite)
	if err != nil {
		fatal(err)
	}
	rec.Recordf("parse", "%s: %d gates in %s", c.Name, len(c.Gates), time.Since(start).Round(time.Microsecond))
	// Every loaded circuit passes the structural verifier: malformed input
	// dies here with a diagnostic instead of panicking inside an engine.
	if err := netcheck.AsError(netcheck.Check(c)); err != nil {
		fatal(err)
	}
	a := harness.Artifacts(c)
	if *check {
		if err := runCheck(a, *model); err != nil {
			fatal(err)
		}
		return
	}
	vs, err := loadVectors(c, *vectorFile, *randomN, *seed)
	if err != nil {
		fatal(err)
	}
	u, err := a.Universe(*model)
	if err != nil {
		fatal(err)
	}
	rec.Recordf("collapse", "%d %s faults", u.NumFaults(), *model)

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
	rec.Recordf("finish", "done: %d/%d detected, cpu %s", m.Detected, m.Faults, m.CPU.Round(time.Microsecond))

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
	if m.Stats.MemBytes > 0 {
		fmt.Printf("mem:       %s MB (fault structures, peak)\n", harness.Meg(m.Stats.MemBytes))
	}
	if line := statsLine(m.Stats); line != "" {
		fmt.Printf("stats:     %s\n", line)
	}

	if flog != nil {
		printFaultEvents(flog, u, c)
	}
	if rec != nil {
		if err := writeFlight(*traceOut, rec); err != nil {
			fatal(err)
		}
		fmt.Printf("trace:     wrote %s (%d flight events)\n", *traceOut, len(rec.Events()))
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
			fmt.Printf("  ... %d more (the full log: a narrower -trace-faults filter, or the faultsim API)\n", len(events)-maxPrint)
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

// statsLine renders the run's non-zero counters as name=value pairs, in
// the order and under the names of a job result's "stats" block.
func statsLine(st csim.Stats) string {
	var pairs []string
	v := reflect.ValueOf(st)
	for i := 0; i < v.NumField(); i++ {
		if n := v.Field(i).Int(); n != 0 {
			name, _, _ := strings.Cut(v.Type().Field(i).Tag.Get("json"), ",")
			pairs = append(pairs, fmt.Sprintf("%s=%d", name, n))
		}
	}
	return strings.Join(pairs, " ")
}

// writeFlight writes the run's flight record to path in the shape
// csimd's /debug serves: {"events": [...], "dropped_events": N}.
func writeFlight(path string, rec *obs.FlightRecorder) error {
	b, err := json.MarshalIndent(struct {
		Events        []obs.FlightEvent `json:"events"`
		DroppedEvents int64             `json:"dropped_events"`
	}{rec.Events(), rec.Dropped()}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runCheck is the -check mode: beyond the structural circuit checks
// (already run on load), verify the selected fault model's universe and
// the macro plans every engine variant would extract — trivial,
// fanout-free and reconvergent — then report.
func runCheck(a *engine.Artifacts, model string) error {
	u, err := a.Universe(model)
	if err != nil {
		return err
	}
	if err := netcheck.AsError(netcheck.CheckUniverse(u)); err != nil {
		return err
	}
	plans := 0
	for _, cfg := range []csim.Config{{}, csim.M(), {ReconvergentMacros: true}} {
		p, err := a.Plan(cfg)
		if err != nil {
			return err
		}
		if err := netcheck.AsError(netcheck.CheckPlan(p)); err != nil {
			return err
		}
		if cfg.Macros || cfg.ReconvergentMacros {
			if err := netcheck.AsError(netcheck.CheckPlanMaximal(p, macro.DefaultMaxInputs, cfg.ReconvergentMacros)); err != nil {
				return err
			}
		}
		plans++
	}
	c := a.Circuit
	st := c.Stats()
	fmt.Printf("check:     %s OK (%d PI, %d PO, %d FF, %d gates; %d faults [%s]; %d plans verified)\n",
		c.Name, st.PIs, st.POs, st.DFFs, st.Gates, u.NumFaults(), model, plans)
	return nil
}

// engineNames lists the accepted -engine values: every registered engine.
func engineNames() []string {
	return engine.Names(func(engine.Info) bool { return true })
}

// validateSelections rejects unknown -engine/-faults/-suite values with
// a one-line usage hint listing the accepted names.
func validateSelections(engineName, model, suite string) error {
	if names := engineNames(); !slices.Contains(names, engineName) {
		return fmt.Errorf("unknown engine %q; usage: -engine %s", engineName, strings.Join(names, "|"))
	}
	if !slices.Contains(engine.Models, model) {
		return fmt.Errorf("unknown fault model %q; usage: -faults %s", model, strings.Join(engine.Models, "|"))
	}
	if suite != "" && !slices.Contains(iscas.Names(), suite) {
		return fmt.Errorf("unknown suite circuit %q; usage: -suite %s", suite, strings.Join(iscas.Names(), "|"))
	}
	return nil
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csim:", err)
	os.Exit(1)
}
