package bench

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// Options tunes a suite run. The zero value is usable: DefaultTrials
// trials after DefaultWarmup warmup runs, no progress output.
type Options struct {
	// Trials is the measured-run count per cell (<= 0 means
	// DefaultTrials). The reported wall time is the fastest trial.
	Trials int
	// Warmup is the discarded-run count per cell (0 means DefaultWarmup,
	// negative means none) — it pays the one-time costs (vector-set
	// generation, page faults) outside the measurement.
	Warmup int
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

// Default trial shape: one warmup then three measured trials per cell.
const (
	// DefaultTrials is the measured-run count when Options.Trials is 0.
	DefaultTrials = 3
	// DefaultWarmup is the warmup-run count when Options.Warmup is
	// negative.
	DefaultWarmup = 1
)

func (o Options) trials() int {
	if o.Trials <= 0 {
		return DefaultTrials
	}
	return o.Trials
}

func (o Options) warmup() int {
	if o.Warmup < 0 {
		return 0
	}
	if o.Warmup == 0 {
		return DefaultWarmup
	}
	return o.Warmup
}

// Run measures every cell of a suite and assembles the report: the
// calibration cell first, then each suite cell in order. now stamps the
// report's Created field (the caller owns the clock so runs stay
// scriptable and testable).
func Run(suiteName string, cells []Cell, opt Options, now time.Time) (*Report, error) {
	rep := &Report{
		Schema:  Schema,
		Created: now.UTC().Format(time.RFC3339),
		Host: Host{
			Go:   runtime.Version(),
			OS:   runtime.GOOS,
			Arch: runtime.GOARCH,
			CPUs: runtime.NumCPU(),
		},
		Suite:  suiteName,
		Trials: opt.trials(),
		Warmup: opt.warmup(),
	}
	cal, err := runCell(Calibration(), opt)
	if err != nil {
		return nil, fmt.Errorf("bench: calibration: %w", err)
	}
	rep.CalibrationNs = cal.BestNs
	if opt.Progress != nil {
		fmt.Fprintf(opt.Progress, "calibration %-40s %12s\n",
			cal.Key, time.Duration(cal.BestNs))
	}
	for _, c := range cells {
		res, err := runCell(c, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c.Key(), err)
		}
		rep.Cells = append(rep.Cells, res)
		if opt.Progress != nil {
			fmt.Fprintf(opt.Progress, "%-52s %12s  %8.1f cyc/s  cvg %.1f%%\n",
				res.Key, time.Duration(res.BestNs), res.CyclesPerSec, 100*res.Coverage)
		}
	}
	return rep, nil
}

// workload resolves a cell's fault universe and vector set through the
// harness (the single source of workload truth — see internal/harness).
func workload(c Cell) (*faults.Universe, *vectors.Set, error) {
	var u *faults.Universe
	var err error
	switch c.Model {
	case ModelStuck:
		u, err = harness.StuckUniverse(c.Circuit)
	case ModelTransition:
		u, err = harness.TransitionUniverse(c.Circuit)
	default:
		return nil, nil, fmt.Errorf("unknown fault model %q", c.Model)
	}
	if err != nil {
		return nil, nil, err
	}
	var vs *vectors.Set
	switch c.Vectors.Kind {
	case "det":
		vs, err = harness.DeterministicSet(c.Circuit)
	case "rand":
		vs, err = harness.RandomSet(c.Circuit, c.Vectors.N)
	default:
		return nil, nil, fmt.Errorf("unknown vector spec %q", c.Vectors)
	}
	if err != nil {
		return nil, nil, err
	}
	return u, vs, nil
}

// runCell measures one cell: warmup runs (discarded), then trials, each
// under a fresh observer so per-trial phase timings and metric snapshots
// don't bleed between trials. The fastest trial supplies the headline
// wall time, its phase breakdown, and its metrics snapshot.
func runCell(c Cell, opt Options) (CellResult, error) {
	u, vs, err := workload(c)
	if err != nil {
		return CellResult{}, err
	}
	warmup, trials := opt.warmup(), opt.trials()
	if c.Heavy {
		warmup, trials = 0, 1
	}
	res := CellResult{
		Key:      c.Key(),
		Engine:   c.Engine,
		Circuit:  c.Circuit,
		Model:    c.Model,
		Vectors:  c.Vectors.String(),
		Workers:  c.Workers,
		Heavy:    c.Heavy,
		Patterns: vs.Len(),
		Faults:   u.NumFaults(),
	}
	for i := 0; i < warmup; i++ {
		if _, _, err := runOnce(c, u, vs); err != nil {
			return res, err
		}
	}
	best := -1
	for i := 0; i < trials; i++ {
		m, tr, err := runOnce(c, u, vs)
		if err != nil {
			return res, err
		}
		res.TrialNs = append(res.TrialNs, tr.wallNs)
		if best < 0 || tr.wallNs < res.TrialNs[best] {
			best = i
			res.BestNs = tr.wallNs
			res.MemBytes = m.MemBytes
			res.AllocBytes = tr.allocBytes
			res.PhasesNs = tr.phasesNs
			res.Metrics = tr.metrics
			res.Detected = m.Detected
			res.PotOnly = m.PotOnly
			res.Coverage = m.Coverage
		}
	}
	if res.BestNs > 0 {
		secs := float64(res.BestNs) / 1e9
		res.CyclesPerSec = float64(res.Patterns) / secs
		res.FaultCyclesPerSec = float64(res.Patterns) * float64(res.Faults) / secs
	}
	return res, nil
}

// trial is one measured run's raw instrumentation.
type trial struct {
	wallNs     int64
	allocBytes int64
	phasesNs   map[string]int64
	metrics    []obs.Point
}

// runOnce executes one cell run under a fresh observer and returns the
// harness measurement plus the per-trial instrumentation.
func runOnce(c Cell, u *faults.Universe, vs *vectors.Set) (harness.Measurement, trial, error) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(reg)
	ob := &obs.Observer{Metrics: reg, Tracer: tracer}

	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	m, err := harness.Run(c.Engine, u, vs, c.Workers, ob)
	wall := time.Since(t0)
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	if err != nil {
		return m, trial{}, err
	}

	tr := trial{
		wallNs:     wall.Nanoseconds(),
		allocBytes: int64(m1.TotalAlloc - m0.TotalAlloc),
		phasesNs:   map[string]int64{},
		metrics:    reg.Snapshot(),
	}
	for name, d := range tracer.PhaseDurations() {
		tr.phasesNs[name] = d.Nanoseconds()
	}
	return m, tr, nil
}
