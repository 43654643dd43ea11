package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// DefaultThreshold is the regression gate: a cell whose score grows by
// more than this fraction over the baseline fails the comparison (the CI
// bench-gate uses the default).
const DefaultThreshold = 0.15

// CompareOptions tunes a baseline comparison.
type CompareOptions struct {
	// Threshold is the per-cell relative slowdown that counts as a
	// regression (0 means DefaultThreshold; e.g. 0.15 = +15%).
	Threshold float64
	// Absolute compares raw wall times instead of calibration-normalized
	// scores. Only meaningful when both reports come from the same
	// machine; the default normalized mode divides each cell's time by
	// its report's calibration time so cross-machine baselines compare
	// hardware-independently (to first order).
	Absolute bool
}

func (o CompareOptions) threshold() float64 {
	if o.Threshold <= 0 {
		return DefaultThreshold
	}
	return o.Threshold
}

// PhaseDelta is one phase's wall time in the current and baseline run of
// a cell — the pointer from "this cell regressed" to "this phase did it".
type PhaseDelta struct {
	// Name is the obs tracer span name ("fault-sim", "good-sim", ...).
	Name string `json:"name"`
	// BaseNs and CurNs are the phase wall times in the two runs.
	BaseNs int64 `json:"base_ns"`
	// CurNs is the phase wall time in the current run.
	CurNs int64 `json:"cur_ns"`
}

// CountDelta is one work counter of a cell in the two runs. The counters
// are exact and repeat from run to run, so any difference is the code's.
type CountDelta struct {
	// Name is the registry metric name ("csim-C.evals").
	Name string `json:"name"`
	// Base is the baseline run's value.
	Base int64 `json:"base"`
	// Cur is the current run's value.
	Cur int64 `json:"cur"`
}

// workCounters are the per-engine counters Compare holds a cell to:
// gate evaluations, fresh fault passes and their in-place continuations,
// published as <engine>.<name>.
var workCounters = []string{"evals", "passes", "steps"}

// CellDelta is one cell's baseline comparison.
type CellDelta struct {
	// Key is the cell identity both reports share.
	Key string `json:"key"`
	// BaseNs and CurNs are the best wall times.
	BaseNs int64 `json:"base_ns"`
	// CurNs is the current run's best wall time.
	CurNs int64 `json:"cur_ns"`
	// BaseScore and CurScore are the compared quantities: raw seconds in
	// absolute mode, multiples of the run's calibration time otherwise.
	BaseScore float64 `json:"base_score"`
	// CurScore is the current run's compared quantity.
	CurScore float64 `json:"cur_score"`
	// Delta is (CurScore - BaseScore) / BaseScore; +0.20 reads "20%
	// slower than baseline".
	Delta float64 `json:"delta"`
	// Regressed marks Delta above the comparison threshold.
	Regressed bool `json:"regressed"`
	// BehaviorChanged marks a detection-count or coverage mismatch —
	// never measurement noise, always a functional change.
	BehaviorChanged bool `json:"behavior_changed,omitempty"`
	// Counts lists the work counters that both runs published and that
	// differ between them.
	Counts []CountDelta `json:"counts,omitempty"`
	// WorkRose marks a counter above its baseline: the cell does more
	// work for the same result, whatever the clock says.
	WorkRose bool `json:"work_rose,omitempty"`
	// Phases breaks the cell down by tracer phase (sorted by name);
	// populated for regressed cells.
	Phases []PhaseDelta `json:"phases,omitempty"`
}

// Comparison is a full current-vs-baseline evaluation.
type Comparison struct {
	// Threshold is the effective per-cell regression threshold.
	Threshold float64 `json:"threshold"`
	// Absolute records the comparison mode.
	Absolute bool `json:"absolute"`
	// Cells holds one delta per key present in both reports, in current-
	// report order.
	Cells []CellDelta `json:"cells"`
	// NewKeys lists cells only the current report has.
	NewKeys []string `json:"new_keys,omitempty"`
	// MissingKeys lists cells only the baseline has.
	MissingKeys []string `json:"missing_keys,omitempty"`
	// GeoMeanSpeedup is exp(mean(ln(base/cur))) over the shared cells:
	// above 1 the run is faster than its baseline overall.
	GeoMeanSpeedup float64 `json:"geo_mean_speedup"`
}

// score converts a cell wall time to the compared quantity.
func score(ns, calibrationNs int64, absolute bool) float64 {
	if absolute || calibrationNs <= 0 {
		return float64(ns) / 1e9
	}
	return float64(ns) / float64(calibrationNs)
}

// Compare evaluates the current report against a baseline. Cells join on
// Key; keys present on only one side are listed, not failed, so suites
// can grow without invalidating old baselines.
func Compare(cur, base *Report, opt CompareOptions) (*Comparison, error) {
	if cur == nil || base == nil {
		return nil, fmt.Errorf("bench: Compare needs two reports")
	}
	if !opt.Absolute && (cur.CalibrationNs <= 0 || base.CalibrationNs <= 0) {
		return nil, fmt.Errorf("bench: normalized comparison needs calibration_ns in both reports (re-run, or use absolute mode)")
	}
	cmp := &Comparison{Threshold: opt.threshold(), Absolute: opt.Absolute}
	baseKeys := map[string]bool{}
	for _, b := range base.Cells {
		baseKeys[b.Key] = true
	}
	logSum, logN := 0.0, 0
	for _, c := range cur.Cells {
		b, ok := base.Cell(c.Key)
		if !ok {
			cmp.NewKeys = append(cmp.NewKeys, c.Key)
			continue
		}
		delete(baseKeys, c.Key)
		d := CellDelta{
			Key:       c.Key,
			BaseNs:    b.BestNs,
			CurNs:     c.BestNs,
			BaseScore: score(b.BestNs, base.CalibrationNs, opt.Absolute),
			CurScore:  score(c.BestNs, cur.CalibrationNs, opt.Absolute),
		}
		if d.BaseScore > 0 {
			d.Delta = (d.CurScore - d.BaseScore) / d.BaseScore
		}
		d.Regressed = d.Delta > cmp.Threshold
		d.BehaviorChanged = c.Detected != b.Detected || c.PotOnly != b.PotOnly ||
			c.Patterns != b.Patterns || c.Faults != b.Faults
		if d.Regressed {
			d.Phases = phaseDeltas(b.PhasesNs, c.PhasesNs)
		}
		for _, name := range workCounters {
			name = c.Engine + "." + name
			bv, bok := b.metric(name)
			cv, cok := c.metric(name)
			if bok && cok && bv != cv {
				d.Counts = append(d.Counts, CountDelta{Name: name, Base: bv, Cur: cv})
				d.WorkRose = d.WorkRose || cv > bv
			}
		}
		if d.BaseScore > 0 && d.CurScore > 0 {
			logSum += math.Log(d.BaseScore / d.CurScore)
			logN++
		}
		cmp.Cells = append(cmp.Cells, d)
	}
	for k := range baseKeys {
		cmp.MissingKeys = append(cmp.MissingKeys, k)
	}
	sort.Strings(cmp.MissingKeys)
	if logN > 0 {
		cmp.GeoMeanSpeedup = math.Exp(logSum / float64(logN))
	}
	return cmp, nil
}

// phaseDeltas merges two phase maps into a sorted slice covering every
// phase either run recorded.
func phaseDeltas(base, cur map[string]int64) []PhaseDelta {
	all := map[string]int64{}
	for n, v := range base {
		all[n] = v
	}
	for n := range cur {
		if _, ok := all[n]; !ok {
			all[n] = 0
		}
	}
	out := make([]PhaseDelta, 0, len(all))
	for _, n := range sortedPhaseNames(all) {
		out = append(out, PhaseDelta{Name: n, BaseNs: base[n], CurNs: cur[n]})
	}
	return out
}

// Regressions returns the cells over threshold, worst first.
func (c *Comparison) Regressions() []CellDelta {
	var out []CellDelta
	for _, d := range c.Cells {
		if d.Regressed {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Delta > out[j].Delta })
	return out
}

// BehaviorChanges returns the cells whose detection counts, coverage
// inputs or workload sizes differ from the baseline.
func (c *Comparison) BehaviorChanges() []CellDelta {
	var out []CellDelta
	for _, d := range c.Cells {
		if d.BehaviorChanged {
			out = append(out, d)
		}
	}
	return out
}

// WorkRises returns the cells with a work counter above its baseline.
func (c *Comparison) WorkRises() []CellDelta {
	var out []CellDelta
	for _, d := range c.Cells {
		if d.WorkRose {
			out = append(out, d)
		}
	}
	return out
}

// Gate returns a non-nil error when the comparison should fail CI: any
// cell regressed past threshold, any cell's deterministic outputs
// (detections, workload sizes) changed against the baseline, or any
// cell's evaluation or pass count rose — by however little: the counts
// are exact, so they need no threshold.
func (c *Comparison) Gate() error {
	var msgs []string
	if regs := c.Regressions(); len(regs) > 0 {
		msgs = append(msgs, fmt.Sprintf("%d cell(s) regressed past %.0f%% (worst: %s %+.1f%%)",
			len(regs), 100*c.Threshold, regs[0].Key, 100*regs[0].Delta))
	}
	if beh := c.BehaviorChanges(); len(beh) > 0 {
		msgs = append(msgs, fmt.Sprintf("%d cell(s) changed behavior vs baseline (first: %s)",
			len(beh), beh[0].Key))
	}
	if work := c.WorkRises(); len(work) > 0 {
		first := work[0]
		for _, n := range first.Counts {
			if n.Cur > n.Base {
				msgs = append(msgs, fmt.Sprintf("%d cell(s) do more work than baseline (first: %s %s %d → %d)",
					len(work), first.Key, n.Name, n.Base, n.Cur))
				break
			}
		}
	}
	if len(msgs) == 0 {
		return nil
	}
	return fmt.Errorf("bench: %s", strings.Join(msgs, "; "))
}

// WriteMarkdown renders the comparison as the regression report: a
// summary line, the per-cell table, and a per-phase breakdown for every
// regressed cell.
func (c *Comparison) WriteMarkdown(w io.Writer) error {
	mode := "calibration-normalized"
	if c.Absolute {
		mode = "absolute wall time"
	}
	fmt.Fprintf(w, "# Benchmark comparison (%s, threshold %.0f%%)\n\n", mode, 100*c.Threshold)
	regs := c.Regressions()
	beh := c.BehaviorChanges()
	work := c.WorkRises()
	switch {
	case len(regs) == 0 && len(beh) == 0 && len(work) == 0:
		fmt.Fprintf(w, "**PASS** — geo-mean speedup vs baseline: **%.3f×** over %d cells\n\n",
			c.GeoMeanSpeedup, len(c.Cells))
	default:
		fmt.Fprintf(w, "**FAIL** — %d regression(s), %d behavior change(s), %d cell(s) doing more work; geo-mean speedup %.3f×\n\n",
			len(regs), len(beh), len(work), c.GeoMeanSpeedup)
	}
	fmt.Fprintln(w, "| cell | base | current | Δ | status |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---|")
	for _, d := range c.Cells {
		status := "ok"
		switch {
		case d.BehaviorChanged && d.Regressed:
			status = "**REGRESSED, BEHAVIOR CHANGED**"
		case d.BehaviorChanged:
			status = "**BEHAVIOR CHANGED**"
		case d.Regressed:
			status = "**REGRESSED**"
		case d.WorkRose:
			status = "**MORE WORK**"
		case d.Delta < -0.05:
			status = "improved"
		}
		fmt.Fprintf(w, "| %s | %s | %s | %+.1f%% | %s |\n",
			d.Key, time.Duration(d.BaseNs).Round(time.Microsecond),
			time.Duration(d.CurNs).Round(time.Microsecond), 100*d.Delta, status)
	}
	fmt.Fprintln(w)
	counts := false
	for _, d := range c.Cells {
		for _, n := range d.Counts {
			if !counts {
				counts = true
				fmt.Fprintln(w, "## Work counters that moved (exact; a rise fails the gate)")
				fmt.Fprintln(w)
				fmt.Fprintln(w, "| cell | counter | base → current | Δ |")
				fmt.Fprintln(w, "|---|---|---:|---:|")
			}
			mark := ""
			if n.Cur > n.Base {
				mark = " **ROSE**"
			}
			fmt.Fprintf(w, "| %s | %s | %d → %d | %+d%s |\n", d.Key, n.Name, n.Base, n.Cur, n.Cur-n.Base, mark)
		}
	}
	if counts {
		fmt.Fprintln(w)
	}
	for _, d := range regs {
		fmt.Fprintf(w, "## %s — phase breakdown\n\n", d.Key)
		fmt.Fprintln(w, "| phase | base | current | Δ |")
		fmt.Fprintln(w, "|---|---:|---:|---:|")
		for _, p := range d.Phases {
			delta := "n/a"
			if p.BaseNs > 0 {
				delta = fmt.Sprintf("%+.1f%%", 100*float64(p.CurNs-p.BaseNs)/float64(p.BaseNs))
			}
			fmt.Fprintf(w, "| %s | %s | %s | %s |\n",
				p.Name, time.Duration(p.BaseNs).Round(time.Microsecond),
				time.Duration(p.CurNs).Round(time.Microsecond), delta)
		}
		fmt.Fprintln(w)
	}
	if len(c.NewKeys) > 0 {
		fmt.Fprintf(w, "New cells (no baseline): %d\n\n", len(c.NewKeys))
	}
	if len(c.MissingKeys) > 0 {
		fmt.Fprintf(w, "Baseline cells missing from this run: %d\n\n", len(c.MissingKeys))
	}
	return nil
}
