package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
)

// tinyCells is the smallest real workload grid: the genuine s27 plus the
// smallest stand-in, enough to exercise serial, concurrent and parallel
// engines in well under a second.
func tinyCells() []Cell {
	return []Cell{
		{Engine: engine.CsimMV, Circuit: "s27", Model: ModelStuck, Vectors: Det()},
		{Engine: engine.Serial, Circuit: "s27", Model: ModelStuck, Vectors: Rand(8)},
		{Engine: engine.CsimGrid, Circuit: "s298", Model: ModelStuck, Vectors: Rand(16), Workers: 2},
	}
}

func tinyRun(t *testing.T) *Report {
	t.Helper()
	rep, err := Run("tiny", tinyCells(), Options{Trials: 2, Warmup: -1}, time.Unix(1754000000, 0))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestSuitesResolve(t *testing.T) {
	for _, name := range SuiteNames() {
		cells, err := Suite(name)
		if err != nil {
			t.Fatalf("Suite(%q): %v", name, err)
		}
		if len(cells) == 0 {
			t.Fatalf("Suite(%q) is empty", name)
		}
		seen := map[string]bool{}
		for _, c := range cells {
			k := c.Key()
			if seen[k] {
				t.Errorf("Suite(%q): duplicate cell key %s", name, k)
			}
			seen[k] = true
		}
	}
	if _, err := Suite("nosuch"); err == nil {
		t.Error("Suite(nosuch) should fail")
	}
}

func TestCellKeys(t *testing.T) {
	c := Cell{Engine: engine.CsimGrid, Circuit: "s298", Model: ModelStuck, Vectors: Rand(100), Workers: 4}
	if got, want := c.Key(), "s298/csim-grid/stuck/rand:100/w4"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	c = Cell{Engine: engine.CsimMV, Circuit: "s27", Model: ModelTransition, Vectors: Det()}
	if got, want := c.Key(), "s27/csim-MV/transition/det"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

func TestFilename(t *testing.T) {
	ts := time.Date(2026, 8, 5, 12, 34, 56, 0, time.UTC)
	if got, want := Filename(ts), "BENCH_20260805T123456Z.json"; got != want {
		t.Errorf("Filename = %q, want %q", got, want)
	}
}

// TestQuickSmoke is the deterministic smoke test: a tiny real run must
// populate every headline field, and a second run must reproduce the
// deterministic outputs (detections, coverage, sizes) exactly.
func TestQuickSmoke(t *testing.T) {
	rep := tinyRun(t)
	if rep.Schema != Schema {
		t.Fatalf("Schema = %q", rep.Schema)
	}
	if rep.CalibrationNs <= 0 {
		t.Fatalf("CalibrationNs = %d, want > 0", rep.CalibrationNs)
	}
	if len(rep.Cells) != len(tinyCells()) {
		t.Fatalf("got %d cells, want %d", len(rep.Cells), len(tinyCells()))
	}
	for _, c := range rep.Cells {
		if c.BestNs <= 0 || len(c.TrialNs) != 2 {
			t.Errorf("%s: BestNs=%d trials=%d, want positive time and 2 trials", c.Key, c.BestNs, len(c.TrialNs))
		}
		if c.Patterns <= 0 || c.Faults <= 0 || c.Detected <= 0 {
			t.Errorf("%s: empty workload (patterns=%d faults=%d detected=%d)", c.Key, c.Patterns, c.Faults, c.Detected)
		}
		if c.CyclesPerSec <= 0 || c.FaultCyclesPerSec <= 0 {
			t.Errorf("%s: throughput not computed", c.Key)
		}
		if len(c.PhasesNs) == 0 {
			t.Errorf("%s: no phase timings recorded", c.Key)
		}
		if len(c.Metrics) == 0 {
			t.Errorf("%s: no metrics snapshot recorded", c.Key)
		}
	}
	again := tinyRun(t)
	for i, c := range rep.Cells {
		d := again.Cells[i]
		if c.Detected != d.Detected || c.PotOnly != d.PotOnly ||
			c.Coverage != d.Coverage || c.Patterns != d.Patterns || c.Faults != d.Faults {
			t.Errorf("%s: deterministic outputs differ between runs: %+v vs %+v", c.Key, c, d)
		}
	}
}

func TestHeavyCellClampsTrials(t *testing.T) {
	cells := []Cell{{Engine: engine.CsimMV, Circuit: "s27", Model: ModelStuck, Vectors: Det(), Heavy: true}}
	rep, err := Run("tiny", cells, Options{Trials: 5, Warmup: 3}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if got := len(rep.Cells[0].TrialNs); got != 1 {
		t.Fatalf("heavy cell ran %d trials, want 1", got)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	rep := tinyRun(t)
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReport(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Errorf("round trip mutated the report:\nout: %+v\nin:  %+v", rep, got)
	}
}

func TestSchemaVersionRejection(t *testing.T) {
	rep := tinyRun(t)
	rep.Schema = "faultsim-bench/v999"
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadReport(&buf); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Errorf("unknown schema accepted (err=%v)", err)
	}
	if _, err := ReadReport(strings.NewReader(`{"cells":[]}`)); err == nil {
		t.Error("missing schema accepted")
	}
	if _, err := ReadReport(strings.NewReader(`not json`)); err == nil {
		t.Error("garbage accepted")
	}
}

// synthetic builds a handcrafted report for comparison-math tests.
func synthetic(calNs int64, cells map[string]int64) *Report {
	r := &Report{Schema: Schema, Created: "2026-08-05T00:00:00Z", Suite: "tiny",
		Trials: 1, Warmup: 0, CalibrationNs: calNs}
	// Deterministic cell order independent of map order.
	keys := []string{"a", "b", "c", "d"}
	for _, k := range keys {
		ns, ok := cells[k]
		if !ok {
			continue
		}
		r.Cells = append(r.Cells, CellResult{
			Key: k, Patterns: 10, Faults: 100, Detected: 42,
			BestNs: ns, TrialNs: []int64{ns},
			PhasesNs: map[string]int64{"fault-sim": ns * 9 / 10, "good-sim": ns / 10},
		})
	}
	return r
}

func TestCompareDeltaAndGeoMean(t *testing.T) {
	base := synthetic(1e6, map[string]int64{"a": 100e6, "b": 200e6})
	cur := synthetic(1e6, map[string]int64{"a": 50e6, "b": 200e6})
	cmp, err := Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Cells) != 2 {
		t.Fatalf("got %d cells", len(cmp.Cells))
	}
	a := cmp.Cells[0]
	if a.Key != "a" || math.Abs(a.Delta-(-0.5)) > 1e-12 {
		t.Errorf("cell a delta = %v, want -0.5", a.Delta)
	}
	if a.Regressed {
		t.Error("a 2x speedup flagged as regression")
	}
	// Speedups 2.0 and 1.0 -> geo-mean sqrt(2).
	if want := math.Sqrt2; math.Abs(cmp.GeoMeanSpeedup-want) > 1e-12 {
		t.Errorf("GeoMeanSpeedup = %v, want %v", cmp.GeoMeanSpeedup, want)
	}
	if err := cmp.Gate(); err != nil {
		t.Errorf("clean comparison gated: %v", err)
	}
}

func TestCompareThresholdEdges(t *testing.T) {
	base := synthetic(1e6, map[string]int64{"a": 100e6})
	for _, tc := range []struct {
		curNs     int64
		threshold float64
		regressed bool
	}{
		{115e6, 0.15, false}, // exactly +15%: not over threshold
		{116e6, 0.15, true},  // just past
		{114e6, 0.15, false},
		{105e6, 0.04, true}, // custom tighter threshold
		{120e6, 0, true},    // 0 falls back to the 15% default
		{114e6, 0, false},
	} {
		cur := synthetic(1e6, map[string]int64{"a": tc.curNs})
		cmp, err := Compare(cur, base, CompareOptions{Threshold: tc.threshold})
		if err != nil {
			t.Fatal(err)
		}
		if got := cmp.Cells[0].Regressed; got != tc.regressed {
			t.Errorf("cur=%dms threshold=%v: regressed=%v, want %v",
				tc.curNs/1e6, tc.threshold, got, tc.regressed)
		}
	}
}

func TestCompareNormalization(t *testing.T) {
	// The "slower machine" baseline: everything, calibration included,
	// takes 2x as long. Normalized comparison must see no regression;
	// absolute comparison must see +100%.
	base := synthetic(2e6, map[string]int64{"a": 200e6})
	cur := synthetic(1e6, map[string]int64{"a": 100e6})
	norm, err := Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d := norm.Cells[0].Delta; math.Abs(d) > 1e-12 {
		t.Errorf("normalized delta = %v, want 0", d)
	}
	abs, err := Compare(base, cur, CompareOptions{Absolute: true})
	if err != nil {
		t.Fatal(err)
	}
	if d := abs.Cells[0].Delta; math.Abs(d-1.0) > 1e-12 {
		t.Errorf("absolute delta = %v, want +1.0", d)
	}
	// Normalized mode without calibration must refuse rather than divide
	// by zero.
	nocal := synthetic(0, map[string]int64{"a": 100e6})
	if _, err := Compare(cur, nocal, CompareOptions{}); err == nil {
		t.Error("normalized compare without calibration should fail")
	}
}

func TestCompareKeyMismatches(t *testing.T) {
	base := synthetic(1e6, map[string]int64{"a": 100e6, "b": 100e6})
	cur := synthetic(1e6, map[string]int64{"a": 100e6, "c": 100e6})
	cmp, err := Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.Cells) != 1 || cmp.Cells[0].Key != "a" {
		t.Fatalf("shared cells = %+v, want just a", cmp.Cells)
	}
	if !reflect.DeepEqual(cmp.NewKeys, []string{"c"}) || !reflect.DeepEqual(cmp.MissingKeys, []string{"b"}) {
		t.Errorf("NewKeys=%v MissingKeys=%v", cmp.NewKeys, cmp.MissingKeys)
	}
	if err := cmp.Gate(); err != nil {
		t.Errorf("key mismatch alone should not gate: %v", err)
	}
}

// TestGateFailsOnDoctoredBaseline is the acceptance check for the CI
// bench-gate: feeding the comparison a baseline doctored to be >15%
// faster than the real measurement must fail the gate, and the markdown
// report must carry the per-phase breakdown for the regressed cell.
func TestGateFailsOnDoctoredBaseline(t *testing.T) {
	cur := tinyRun(t)
	var buf bytes.Buffer
	if err := cur.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	doctored, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The doctored baseline claims every cell used to run in half the
	// time (calibration untouched): the current run reads 2x slower.
	for i := range doctored.Cells {
		doctored.Cells[i].BestNs /= 2
		for name, v := range doctored.Cells[i].PhasesNs {
			doctored.Cells[i].PhasesNs[name] = v / 2
		}
	}
	cmp, err := Compare(cur, doctored, CompareOptions{Threshold: 0.15})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(cmp.Regressions()), len(cur.Cells); got != want {
		t.Fatalf("%d regressions, want %d", got, want)
	}
	if err := cmp.Gate(); err == nil {
		t.Fatal("gate passed against a baseline doctored 2x faster")
	}
	var md bytes.Buffer
	if err := cmp.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	out := md.String()
	if !strings.Contains(out, "**FAIL**") {
		t.Error("markdown comparison does not announce FAIL")
	}
	if !strings.Contains(out, "phase breakdown") || !strings.Contains(out, "fault-sim") {
		t.Error("markdown comparison lacks the per-phase breakdown")
	}
}

// TestGateFailsOnBehaviorChange: detection counts are deterministic, so a
// baseline mismatch is a functional regression even at equal speed.
func TestGateFailsOnBehaviorChange(t *testing.T) {
	base := synthetic(1e6, map[string]int64{"a": 100e6})
	cur := synthetic(1e6, map[string]int64{"a": 100e6})
	cur.Cells[0].Detected++
	cmp, err := Compare(cur, base, CompareOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.BehaviorChanges()) != 1 {
		t.Fatalf("behavior change not detected: %+v", cmp.Cells)
	}
	if err := cmp.Gate(); err == nil {
		t.Fatal("gate passed a detection-count change")
	}
}

// TestGateOnWorkCounters: evaluation and pass counts repeat exactly, so
// a rise of one fails the gate at equal speed, a drop passes and is
// printed as exact integers, and a counter the baseline never published
// is not compared.
func TestGateOnWorkCounters(t *testing.T) {
	report := func(evals, passes int64) *Report {
		r := synthetic(1e6, map[string]int64{"a": 100e6})
		r.Cells[0].Engine = "csim-C"
		r.Cells[0].Metrics = []obs.Point{{Name: "csim-C.evals", Kind: "counter", Value: evals}}
		if passes >= 0 {
			r.Cells[0].Metrics = append(r.Cells[0].Metrics,
				obs.Point{Name: "csim-C.passes", Kind: "counter", Value: passes})
		}
		return r
	}
	for _, tc := range []struct {
		name             string
		base, cur        *Report
		counts           int
		gated            bool
		inReport, inGate string
	}{
		{"equal", report(1000, 50), report(1000, 50), 0, false, "", ""},
		{"evals drop", report(1000, 50), report(800, 50), 1, false, "| 1000 → 800 | -200 |", ""},
		{"evals rise by one", report(1000, 50), report(1001, 50), 1, true, "| 1000 → 1001 | +1 **ROSE** |", "csim-C.evals 1000 → 1001"},
		{"passes rise, evals drop", report(1000, 50), report(900, 60), 2, true, "| 50 → 60 | +10 **ROSE** |", "csim-C.passes 50 → 60"},
		{"baseline without passes", report(1000, -1), report(1000, 60), 0, false, "", ""},
	} {
		cmp, err := Compare(tc.cur, tc.base, CompareOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(cmp.Cells[0].Counts); got != tc.counts {
			t.Errorf("%s: %d counters moved, want %d", tc.name, got, tc.counts)
		}
		err = cmp.Gate()
		if (err != nil) != tc.gated {
			t.Errorf("%s: gate error %v, want gated = %v", tc.name, err, tc.gated)
		}
		if err != nil && !strings.Contains(err.Error(), tc.inGate) {
			t.Errorf("%s: gate error %q lacks %q", tc.name, err, tc.inGate)
		}
		var md bytes.Buffer
		if err := cmp.WriteMarkdown(&md); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(md.String(), tc.inReport) {
			t.Errorf("%s: report lacks %q:\n%s", tc.name, tc.inReport, md.String())
		}
		if strings.Contains(md.String(), "**FAIL**") != tc.gated {
			t.Errorf("%s: report verdict does not match gated = %v:\n%s", tc.name, tc.gated, md.String())
		}
	}
}

// TestReportMarkdown sanity-checks the no-baseline rendering.
func TestReportMarkdown(t *testing.T) {
	rep := tinyRun(t)
	var md bytes.Buffer
	if err := rep.WriteMarkdown(&md); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"suite \"tiny\"", "s27/csim-MV/stuck/det", "fault-cycles/s"} {
		if !strings.Contains(md.String(), want) {
			t.Errorf("report markdown missing %q", want)
		}
	}
}

// TestCellResultJSONNames pins the schema's field spelling: renaming a
// JSON key is a schema change and must bump the Schema version.
func TestCellResultJSONNames(t *testing.T) {
	b, err := json.Marshal(CellResult{Key: "k", PhasesNs: map[string]int64{"p": 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"key"`, `"best_ns"`, `"mem_bytes"`, `"alloc_bytes"`,
		`"cycles_per_sec"`, `"fault_cycles_per_sec"`, `"phases_ns"`, `"trial_ns"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("CellResult JSON missing field %s in %s", want, b)
		}
	}
}
