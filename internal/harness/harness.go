// Package harness runs the paper's experiments: it pairs circuits with
// test sets, runs a chosen simulator configuration, and collects the
// CPU-time / memory / coverage measurements that Tables 2-6 report.
package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/goodsim"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/proofs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// Engine names a simulator configuration under measurement.
type Engine string

// The measured engines. CsimV/CsimM/CsimMV are the paper's variants;
// CsimPlain (no improvements) and CsimEager (full-scan dropping) exist for
// ablations.
const (
	CsimPlain Engine = "csim"
	CsimV     Engine = "csim-V"
	CsimM     Engine = "csim-M"
	CsimMV    Engine = "csim-MV"
	CsimEager Engine = "csim-MV-eagerdrop"
	// CsimReconv uses the paper's reconvergent-macro extension.
	CsimReconv Engine = "csim-MV-reconvergent"
	// CsimP is the fault-partition parallel engine: csim-MV sharded over
	// worker goroutines replaying a shared good-machine trace.
	CsimP Engine = "csim-P"
	// CsimGrid is the fault-sharded engine on whichever kernel the
	// vector count selects. With the shard count unset the scheduler
	// picks it.
	CsimGrid Engine = "csim-grid"
	// CsimC is the compiled backend: the circuit lowered once into
	// branch-free levelized straight-line evaluation over flat word
	// arrays, a packed 64-cycle-per-word good trace, and per-fault
	// bit-parallel cone re-evaluation (internal/compiled).
	CsimC Engine = "csim-C"
	// PROOFS is the bit-parallel single-fault-propagation baseline.
	PROOFS Engine = "PROOFS"
	// Serial is the brute-force oracle: one full resimulation per fault.
	// It is orders of magnitude slower than every other engine and exists
	// as the ground-truth throughput floor in benchmark reports.
	Serial Engine = "serial"
	// GoodSim runs only the interpreted event-driven good machine
	// (internal/goodsim) — no faults. It exists as the interpreter side
	// of the good-machine throughput comparison in benchmark reports.
	GoodSim Engine = "good-sim"
	// GoodC runs only the compiled good machine: the straight-line fused
	// table-lookup stream over the flat compiled program. The compiled
	// side of the good-machine throughput comparison.
	GoodC Engine = "good-C"
)

// Config returns the csim configuration for a csim engine.
func (e Engine) Config() csim.Config {
	switch e {
	case CsimV:
		return csim.V()
	case CsimM:
		return csim.M()
	case CsimMV:
		return csim.MV()
	case CsimEager:
		cfg := csim.MV()
		cfg.EagerDrop = true
		return cfg
	case CsimReconv:
		cfg := csim.MV()
		cfg.ReconvergentMacros = true
		return cfg
	default:
		return csim.Config{}
	}
}

// Measurement is one table cell group: an engine run on one workload.
type Measurement struct {
	// Engine is the measured simulator configuration.
	Engine Engine
	// Circuit is the workload circuit's name.
	Circuit string
	// Patterns is the applied test-vector count.
	Patterns int
	// Faults is the fault-universe size.
	Faults int
	// Detected is the hard-detection count.
	Detected int
	// PotOnly counts potentially-but-never-hard detected faults.
	PotOnly int
	// Coverage is hard coverage in [0,1].
	Coverage float64
	// CPU is the measured wall time of the run.
	CPU time.Duration
	// MemBytes is the accounted fault-structure memory at peak.
	MemBytes int64
	// Workers is the fault-shard goroutine count (csim-P and csim-grid
	// only; 0 otherwise).
	Workers int
}

// FltCvg returns hard coverage in percent.
func (m Measurement) FltCvg() float64 { return 100 * m.Coverage }

// Run measures one engine over a universe and test set.
func Run(engine Engine, u *faults.Universe, vs *vectors.Set) (Measurement, error) {
	return RunObserved(engine, u, vs, nil)
}

// EnginePrefix is the registry namespace of a csim engine's metrics when
// run through the harness, e.g. "csim-MV." — per-engine eval counts stay
// distinguishable in one metrics snapshot.
func EnginePrefix(engine Engine) string { return string(engine) + "." }

// compiledCache memoizes the compile-once csim-C artifact per circuit.
// The Program is immutable and shared by design — lowering a circuit is
// a one-time cost, exactly like the cached universes and deterministic
// sets — so repeated harness runs (bench trials, table cells) measure
// evaluation, not recompilation. The service layer memoizes the same
// artifact in its own cache (service.Compiled.Program).
var (
	compiledMu    sync.Mutex
	compiledCache = map[*netlist.Circuit]*compiled.Program{}
)

// compiledProgram returns the memoized compiled form of a circuit.
func compiledProgram(c *netlist.Circuit) *compiled.Program {
	compiledMu.Lock()
	defer compiledMu.Unlock()
	p := compiledCache[c]
	if p == nil {
		p = compiled.Compile(c)
		compiledCache[c] = p
	}
	return p
}

// RunObserved measures one engine under the observability layer: the
// engine registers its metrics into ob's registry (namespaced by
// EnginePrefix), the simulation runs inside a "fault-sim" tracer span,
// and — when a registry is attached — the Measurement's memory column is
// sourced from the registry snapshot rather than the bespoke Stats
// counters. ob may be nil, which is exactly Run.
func RunObserved(engine Engine, u *faults.Universe, vs *vectors.Set, ob *obs.Observer) (Measurement, error) {
	m := Measurement{
		Engine:   engine,
		Circuit:  u.Circuit.Name,
		Patterns: vs.Len(),
		Faults:   u.NumFaults(),
	}
	start := time.Now()
	var res *faults.Result
	switch engine {
	case CsimP:
		return RunParallelObserved(u, vs, 0, ob)
	case CsimGrid:
		return RunGridObserved(u, vs, 0, ob)
	case Serial:
		sp := ob.Span("fault-sim")
		res = serial.Simulate(u, vs)
		sp.End()
	case CsimC:
		sim, err := compiled.NewWith(compiledProgram(u.Circuit), u)
		if err != nil {
			return m, err
		}
		sp := ob.Span("fault-sim")
		res = sim.Run(vs)
		sp.End()
		st := sim.Stats()
		csim.PublishStats(ob.Registry(), EnginePrefix(engine), st)
		m.MemBytes = st.MemBytes
	case GoodSim:
		sp := ob.Span("good-sim")
		s := goodsim.New(u.Circuit)
		for _, vec := range vs.Vecs {
			s.Apply(vec)
			s.Clock()
		}
		sp.End()
		res = faults.NewResult(u)
		ob.Registry().Counter(EnginePrefix(engine) + "good_evals").Add(int64(s.Events))
	case GoodC:
		g := compiledProgram(u.Circuit).NewGood()
		sp := ob.Span("good-sim")
		g.Run(vs)
		sp.End()
		res = faults.NewResult(u)
		ob.Registry().Counter(EnginePrefix(engine) + "good_evals").Add(g.Evals)
	case PROOFS:
		sim, err := proofs.New(u)
		if err != nil {
			return m, err
		}
		sp := ob.Span("fault-sim")
		res = sim.Run(vs)
		sp.End()
		m.MemBytes = sim.Stats().MemBytes
		ob.Registry().Gauge(EnginePrefix(engine) + "mem_bytes").Set(m.MemBytes)
	default:
		cfg := engine.Config()
		cfg.Obs = ob
		cfg.ObsPrefix = EnginePrefix(engine)
		sim, err := csim.New(u, cfg)
		if err != nil {
			return m, err
		}
		sp := ob.Span("fault-sim")
		res = sim.Run(vs)
		sp.End()
		if st, ok := csim.StatsFromRegistry(ob.Registry(), cfg.ObsPrefix); ok {
			m.MemBytes = st.MemBytes
		} else {
			m.MemBytes = sim.Stats().MemBytes
		}
	}
	m.CPU = time.Since(start)
	m.Detected = res.NumDet
	m.PotOnly = res.NumPotOnly()
	m.Coverage = res.Coverage()
	return m, nil
}

// RunParallel measures the fault-partition parallel engine: the csim-MV
// variant sharded over the given number of worker goroutines (<= 0 means
// runtime.NumCPU(), always clamped to the universe size), replaying one
// shared good-machine trace. Measurement.Workers records the effective
// partition count.
func RunParallel(u *faults.Universe, vs *vectors.Set, workers int) (Measurement, error) {
	return RunParallelObserved(u, vs, workers, nil)
}

// RunParallelObserved is RunParallel under the observability layer: phase
// spans, per-worker gauges under "csim-P.worker<i>.", merged run totals
// under "csim-P.", and a registry-sourced memory column. ob may be nil.
func RunParallelObserved(u *faults.Universe, vs *vectors.Set, workers int, ob *obs.Observer) (Measurement, error) {
	opt := parallel.Options{Workers: workers, Config: csim.MV(), Obs: ob}
	m := Measurement{
		Engine:   CsimP,
		Circuit:  u.Circuit.Name,
		Patterns: vs.Len(),
		Faults:   u.NumFaults(),
		Workers:  opt.EffectiveWorkers(u.NumFaults()),
	}
	start := time.Now()
	res, st, err := parallel.Simulate(u, vs, opt)
	if err != nil {
		return m, err
	}
	m.CPU = time.Since(start)
	if rst, ok := csim.StatsFromRegistry(ob.Registry(), parallel.MergedPrefix); ok {
		m.MemBytes = rst.MemBytes
	} else {
		m.MemBytes = st.MemBytes
	}
	m.Detected = res.NumDet
	m.PotOnly = res.NumPotOnly()
	m.Coverage = res.Coverage()
	return m, nil
}

// RunGrid measures the fault-sharded grid engine. faultShards <= 0 lets
// the scheduler pick the shard count from the job's dimensions.
// Measurement.Workers records the effective count.
func RunGrid(u *faults.Universe, vs *vectors.Set, faultShards int) (Measurement, error) {
	return RunGridObserved(u, vs, faultShards, nil)
}

// RunGridObserved is RunGrid under the observability layer: merged
// totals under "csim-grid.", per-shard namespaces under
// "csim-grid.shard<k>." on the interpreted path, and — when the
// scheduler plans the run — the "sched.*" decision gauges. From 64
// vectors on the shards are workers of the compiled kernel over the
// memoized program. ob may be nil.
func RunGridObserved(u *faults.Universe, vs *vectors.Set, faultShards int, ob *obs.Observer) (Measurement, error) {
	opt := parallel.GridOptions{FaultShards: faultShards, Config: csim.MV(), Obs: ob}
	if parallel.RunsCompiled(vs.Len()) {
		opt.Program = compiledProgram(u.Circuit)
	}
	m := Measurement{
		Engine:   CsimGrid,
		Circuit:  u.Circuit.Name,
		Patterns: vs.Len(),
		Faults:   u.NumFaults(),
	}
	start := time.Now()
	var (
		res *faults.Result
		st  csim.Stats
		err error
	)
	if faultShards <= 0 {
		var plan parallel.Plan
		res, st, plan, err = parallel.SimulateAuto(context.Background(), u, vs, parallel.AutoOptions{
			Config: opt.Config, Program: opt.Program, Obs: ob})
		m.Workers = plan.FaultShards
	} else {
		m.Workers = opt.EffectiveShards(u.NumFaults(), vs.Len())
		res, st, err = parallel.SimulateGrid(context.Background(), u, vs, opt)
	}
	if err != nil {
		return m, err
	}
	m.CPU = time.Since(start)
	if rst, ok := csim.StatsFromRegistry(ob.Registry(), parallel.GridPrefix); ok {
		m.MemBytes = rst.MemBytes
	} else {
		m.MemBytes = st.MemBytes
	}
	m.Detected = res.NumDet
	m.PotOnly = res.NumPotOnly()
	m.Coverage = res.Coverage()
	return m, nil
}

// NamedSnapshot is one table cell's registry snapshot.
type NamedSnapshot struct {
	// Name identifies the cell as "circuit/engine".
	Name string `json:"name"`
	// Metrics is the cell's full registry snapshot.
	Metrics []obs.Point `json:"metrics"`
}

// MetricsSink accumulates per-run registry snapshots while the harness
// regenerates tables; cmd/tables serializes it behind -metrics-out.
type MetricsSink struct {
	mu   sync.Mutex
	runs []NamedSnapshot
}

// Add records one named snapshot.
func (s *MetricsSink) Add(name string, metrics []obs.Point) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.runs = append(s.runs, NamedSnapshot{Name: name, Metrics: metrics})
	s.mu.Unlock()
}

// Runs returns the collected snapshots in insertion order.
func (s *MetricsSink) Runs() []NamedSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]NamedSnapshot(nil), s.runs...)
}

// WriteJSON writes the collected snapshots as {"runs": [...]}.
func (s *MetricsSink) WriteJSON(w io.Writer) error {
	runs := s.Runs()
	if runs == nil {
		runs = []NamedSnapshot{}
	}
	return writeJSON(w, struct {
		Runs []NamedSnapshot `json:"runs"`
	}{runs})
}

// Table renders rows of measurements as an aligned text table.
type Table struct {
	// Title prints above the header.
	Title string
	// Header is the column-name row.
	Header []string
	// Rows are the body cells, one slice per row.
	Rows [][]string
	// Caption prints below the body.
	Caption string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// Seconds formats a duration as the paper's CPU columns (seconds).
func Seconds(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// Meg formats bytes as megabytes.
func Meg(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
