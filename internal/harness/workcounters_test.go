package harness

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

var update = flag.Bool("update", false, "rewrite the work-counter baseline from this run")

// workBaseline is the checked-in record TestWorkCounters holds each run
// to; nothing in it is a time, so any host may rewrite it.
const workBaseline = "../../baselines/bench-quick.json"

// workCell is one work-counter point: an engine on one workload. rand 0
// selects the circuit's deterministic set; workers is the compiled
// kernel's processor budget (engine.Options.Workers).
type workCell struct {
	engine, circuit, model string
	rand, workers          int
}

// key is the cell's identity in the baseline:
// "circuit/engine/model/vectors", plus "/wN" for a pinned budget.
func (c workCell) key() string {
	vec := "det"
	if c.rand > 0 {
		vec = fmt.Sprintf("rand:%d", c.rand)
	}
	k := fmt.Sprintf("%s/%s/%s/%s", c.circuit, c.engine, c.model, vec)
	if c.workers > 0 {
		k += fmt.Sprintf("/w%d", c.workers)
	}
	return k
}

// workCells is every engine family on circuits small enough that one
// run of each takes milliseconds, in the baseline's order.
func workCells() []workCell {
	var cells []workCell
	for _, ckt := range []string{"s298", "s444", "s1494"} {
		for _, eng := range []string{engine.CsimV, engine.CsimM, engine.CsimMV, engine.CsimC, engine.PROOFS} {
			cells = append(cells, workCell{engine: eng, circuit: ckt, model: "stuck"})
		}
	}
	return append(cells,
		// One oracle cell.
		workCell{engine: engine.Serial, circuit: "s298", model: "stuck"},
		// The service benchmark's grid-local job on a pinned budget of
		// two, so K is the same on every host, and the same job under one
		// word: the half-empty-word regime.
		workCell{engine: engine.CsimGrid, circuit: "s5378", model: "transition", rand: 256, workers: 2},
		workCell{engine: engine.CsimGrid, circuit: "s5378", model: "transition", rand: 32, workers: 2},
		// The second fault model, interpreted and compiled (masked
		// transition injection).
		workCell{engine: engine.CsimMV, circuit: "s298", model: "transition"},
		workCell{engine: engine.CsimC, circuit: "s298", model: "transition"},
	)
}

// workCount is one cell's integers in the baseline file's shape.
// Counters holds the run's non-zero work counters as
// "<engine>.<stats field>".
type workCount struct {
	Key      string           `json:"key"`
	Patterns int              `json:"patterns"`
	Faults   int              `json:"faults"`
	Detected int              `json:"detected"`
	PotOnly  int              `json:"pot_only"`
	K        int              `json:"k"`
	Counters map[string]int64 `json:"counters"`
}

// ints lists every integer of the cell by name.
func (c workCount) ints() map[string]int64 {
	m := maps.Clone(c.Counters)
	if m == nil {
		m = map[string]int64{}
	}
	m["patterns"], m["faults"], m["detected"] = int64(c.Patterns), int64(c.Faults), int64(c.Detected)
	m["pot_only"], m["k"] = int64(c.PotOnly), int64(c.K)
	return m
}

// workFile is the baseline file.
type workFile struct {
	Schema string      `json:"schema"`
	Cells  []workCount `json:"cells"`
}

// countWork runs one cell and keeps its integers: the run's shape and
// each of its five work counters that is non-zero — gate evaluations,
// fresh fault passes and their in-place continuations, good-machine
// evaluations and detections. PROOFS and serial count none.
func countWork(t *testing.T, c workCell) (workCount, time.Duration) {
	t.Helper()
	u, err := Universe(c.circuit, c.model)
	if err != nil {
		t.Fatalf("%s: %v", c.key(), err)
	}
	vs, err := DeterministicSet(c.circuit)
	if c.rand > 0 {
		vs, err = RandomSet(c.circuit, c.rand)
	}
	if err != nil {
		t.Fatalf("%s: %v", c.key(), err)
	}
	m, err := Run(c.engine, u, vs, c.workers, nil)
	if err != nil {
		t.Fatalf("%s: %v", c.key(), err)
	}
	n := workCount{
		Key: c.key(), Patterns: m.Patterns, Faults: m.Faults, Detected: m.Detected,
		PotOnly: m.PotOnly, K: m.Workers, Counters: map[string]int64{},
	}
	st := m.Stats
	for name, v := range map[string]int{
		"evals": st.Evals, "passes": st.Passes, "steps": st.Steps,
		"good_evals": st.GoodEvals, "detections": st.Detections,
	} {
		if v != 0 {
			n.Counters[c.engine+"."+name] = int64(v)
		}
	}
	return n, m.CPU
}

// diffWork lists each difference between a baseline and a run, one
// line each: "key: name base → run" for an integer, "none" standing
// for the side that lacks it, and one line for a cell only one side
// has.
func diffWork(base, run []workCount) []string {
	have := map[string]map[string]int64{}
	for _, r := range run {
		have[r.Key] = r.ints()
	}
	value := func(m map[string]int64, name string) string {
		if v, ok := m[name]; ok {
			return fmt.Sprint(v)
		}
		return "none"
	}
	var diffs []string
	for _, b := range base {
		r, ok := have[b.Key]
		if !ok {
			diffs = append(diffs, b.Key+": cell missing from the run")
			continue
		}
		delete(have, b.Key)
		bi := b.ints()
		all := maps.Clone(bi)
		maps.Copy(all, r)
		names := make([]string, 0, len(all))
		for name := range all {
			names = append(names, name)
		}
		slices.Sort(names)
		for _, name := range names {
			if bv, rv := value(bi, name), value(r, name); bv != rv {
				diffs = append(diffs, fmt.Sprintf("%s: %s %s → %s", b.Key, name, bv, rv))
			}
		}
	}
	for _, r := range run {
		if _, ok := have[r.Key]; ok {
			diffs = append(diffs, r.Key+": cell not in the baseline")
		}
	}
	return diffs
}

// TestWorkCounters runs each cell once and holds its integers — sizes,
// detections, the worker count K and every non-zero work counter — to
// the checked-in baseline, both ways: a cell or counter only one side
// has fails too. The integers repeat exactly on any host, so a
// difference is the code's. Wall time is logged, never compared. After
// an intended change, `make baseline` rewrites the file.
func TestWorkCounters(t *testing.T) {
	run := workFile{Schema: "faultsim-bench/v2"}
	for _, c := range workCells() {
		n, wall := countWork(t, c)
		t.Logf("%-40s %9s", n.Key, wall.Round(time.Microsecond))
		run.Cells = append(run.Cells, n)
	}
	if *update {
		b, err := json.MarshalIndent(run, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workBaseline, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	b, err := os.ReadFile(workBaseline)
	if err != nil {
		t.Fatal(err)
	}
	var base workFile
	if err := json.Unmarshal(b, &base); err != nil {
		t.Fatalf("%s: %v", workBaseline, err)
	}
	if diffs := diffWork(base.Cells, run.Cells); len(diffs) > 0 {
		t.Errorf("%d difference(s) from %s (if intended, run `make baseline`):\n  %s",
			len(diffs), workBaseline, strings.Join(diffs, "\n  "))
	}
}

// TestWorkCells holds the cell table to 20 unique keys, with every
// csim-grid cell on a pinned budget of two, so K is host-independent.
func TestWorkCells(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range workCells() {
		k := c.key()
		if seen[k] {
			t.Errorf("duplicate work cell %s", k)
		}
		seen[k] = true
		if c.engine == engine.CsimGrid && c.workers != 2 {
			t.Errorf("%s: csim-grid cell without a pinned budget of 2", k)
		}
	}
	if len(seen) != 20 {
		t.Errorf("work-cell table has %d cells, want 20", len(seen))
	}
	c := workCell{engine: engine.CsimGrid, circuit: "s298", model: "stuck", rand: 100, workers: 4}
	if got, want := c.key(), "s298/csim-grid/stuck/rand:100/w4"; got != want {
		t.Errorf("key = %q, want %q", got, want)
	}
}

// TestCountWork runs three tiny cells through countWork and checks,
// without the baseline (so also under -update), that each carries its
// workload, its detections and a wall time, and the csim-grid cell its
// pinned K and all five work counters.
func TestCountWork(t *testing.T) {
	cells := []workCell{
		{engine: engine.CsimMV, circuit: "s27", model: "stuck"},
		{engine: engine.Serial, circuit: "s27", model: "stuck", rand: 8},
		{engine: engine.CsimGrid, circuit: "s298", model: "stuck", rand: 16, workers: 2},
	}
	var grid workCount
	for _, c := range cells {
		n, wall := countWork(t, c)
		if n.Patterns <= 0 || n.Faults <= 0 || n.Detected <= 0 || wall <= 0 {
			t.Errorf("%s: empty result %+v (wall %v)", n.Key, n, wall)
		}
		grid = n
	}
	if grid.K != 2 {
		t.Errorf("%s: K = %d, want 2", grid.Key, grid.K)
	}
	for _, name := range []string{"evals", "passes", "steps", "good_evals", "detections"} {
		if _, ok := grid.Counters["csim-grid."+name]; !ok {
			t.Errorf("%s: counter csim-grid.%s not recorded (have %v)", grid.Key, name, grid.Counters)
		}
	}
	if got := grid.Counters["csim-grid.detections"]; got != int64(grid.Detected) {
		t.Errorf("%s: detections counter %d, detected %d", grid.Key, got, grid.Detected)
	}
}

// TestDiffWork holds the comparison to what it must catch: each doctored
// baseline yields exactly the line that names the change, and an
// undoctored one none.
func TestDiffWork(t *testing.T) {
	const c, grid = "s298/csim-C/stuck/det", "s5378/csim-grid/transition/rand:32/w2"
	run := []workCount{
		{Key: c, Patterns: 34, Faults: 431, Detected: 174, PotOnly: 2, K: 1,
			Counters: map[string]int64{"csim-C.evals": 16335, "csim-C.passes": 431}},
		{Key: grid, Patterns: 32, Faults: 12120, Detected: 2451, PotOnly: 366, K: 2,
			Counters: map[string]int64{"csim-grid.steps": 9322}},
	}
	for _, tc := range []struct {
		name   string
		doctor func(b []workCount) []workCount
		want   string // "" means no difference
	}{
		{"unchanged", func(b []workCount) []workCount { return b }, ""},
		{"counter_rose", func(b []workCount) []workCount { b[0].Counters["csim-C.evals"]--; return b }, c + ": csim-C.evals 16334 → 16335"},
		{"counter_fell", func(b []workCount) []workCount { b[0].Counters["csim-C.passes"]++; return b }, c + ": csim-C.passes 432 → 431"},
		{"detected_changed", func(b []workCount) []workCount { b[0].Detected--; return b }, c + ": detected 173 → 174"},
		{"pot_only_changed", func(b []workCount) []workCount { b[0].PotOnly++; return b }, c + ": pot_only 3 → 2"},
		{"patterns_changed", func(b []workCount) []workCount { b[1].Patterns++; return b }, grid + ": patterns 33 → 32"},
		{"faults_changed", func(b []workCount) []workCount { b[1].Faults--; return b }, grid + ": faults 12119 → 12120"},
		{"K_changed", func(b []workCount) []workCount { b[1].K = 1; return b }, grid + ": k 1 → 2"},
		{"counter_missing_from_run", func(b []workCount) []workCount { b[0].Counters["csim-C.steps"] = 9; return b }, c + ": csim-C.steps 9 → none"},
		{"counter_missing_from_baseline", func(b []workCount) []workCount { delete(b[1].Counters, "csim-grid.steps"); return b }, grid + ": csim-grid.steps none → 9322"},
		{"cell_missing_from_run", func(b []workCount) []workCount {
			return append(b, workCount{Key: "s27/csim-V/stuck/det"})
		}, "s27/csim-V/stuck/det: cell missing from the run"},
		{"extra_cell", func(b []workCount) []workCount { return b[:1] }, grid + ": cell not in the baseline"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := slices.Clone(run)
			for i := range base {
				base[i].Counters = maps.Clone(base[i].Counters)
			}
			got := diffWork(tc.doctor(base), run)
			if tc.want == "" && len(got) != 0 || tc.want != "" && !slices.Equal(got, []string{tc.want}) {
				t.Errorf("differences %q, want %q", got, tc.want)
			}
		})
	}
}
