// Package bench is the reproducible benchmark pipeline: it defines
// benchmark suites as explicit cell grids (engine variant × circuit ×
// fault model × vector source × worker count), runs each cell with warmup
// and repeated trials under the observability layer, and serializes the
// results as schema-versioned BENCH_<timestamp>.json reports that later
// runs compare against (per-cell delta, geometric-mean speedup, and a
// configurable regression threshold — the CI bench-gate).
//
// The package deliberately owns no workload logic: circuits, vector sets,
// fault universes and engine execution all come from internal/harness, so
// a cell measured here is exactly a table cell of cmd/tables. What bench
// adds is the measurement discipline — fixed trial counts, per-trial
// phase timings through the obs tracer, calibration-normalized scores —
// and the file format that makes runs comparable across commits.
//
// See BENCHMARKS.md for the operator's guide and the JSON schema
// reference; cmd/bench is the CLI driver.
package bench

import (
	"fmt"
	"sort"

	"repro/internal/engine"
)

// Fault-model names used in cell definitions and report keys.
const (
	// ModelStuck is the equivalence-collapsed single stuck-at universe.
	ModelStuck = "stuck"
	// ModelTransition is the §3 gate-input transition-fault universe.
	ModelTransition = "transition"
)

// VectorSpec names a cell's test-vector source: the circuit's
// deterministic set (internal/atpg, cached and seeded) or a seeded random
// sequence of N vectors. The zero value is invalid; use Det or Rand.
type VectorSpec struct {
	// Kind is "det" (deterministic suite set) or "rand".
	Kind string
	// N is the vector count for Kind "rand"; ignored for "det".
	N int
}

// Det selects the circuit's deterministic test set.
func Det() VectorSpec { return VectorSpec{Kind: "det"} }

// Rand selects n seeded random vectors.
func Rand(n int) VectorSpec { return VectorSpec{Kind: "rand", N: n} }

// String renders the spec as it appears in cell keys: "det" or "rand:N".
func (v VectorSpec) String() string {
	if v.Kind == "rand" {
		return fmt.Sprintf("rand:%d", v.N)
	}
	return v.Kind
}

// Cell is one benchmark measurement point: an engine run on one workload.
type Cell struct {
	// Engine is the simulator configuration under measurement.
	Engine string
	// Circuit names a built-in suite circuit (e.g. "s5378").
	Circuit string
	// Model is ModelStuck or ModelTransition.
	Model string
	// Vectors selects the test sequence.
	Vectors VectorSpec
	// Workers is the compiled kernel's processor budget
	// (engine.Options.Workers): 0 is one thread for csim-C and the
	// scheduler's plan on every CPU for csim-grid; other engines ignore
	// it.
	Workers int
	// Heavy marks cells too expensive for repeated trials: the runner
	// clamps them to one trial and no warmup regardless of Options.
	Heavy bool
}

// Key is the cell's stable identity in reports and baselines:
// "circuit/engine/model/vectors" plus "/wN" for explicit worker counts.
func (c Cell) Key() string {
	k := fmt.Sprintf("%s/%s/%s/%s", c.Circuit, c.Engine, c.Model, c.Vectors)
	if c.Workers > 0 {
		k += fmt.Sprintf("/w%d", c.Workers)
	}
	return k
}

// Calibration is the fixed workload every suite run measures first:
// cell scores are reported as multiples of this cell's best wall time, so
// two reports from different machines compare meaningfully (see
// Compare). It must stay cheap, deterministic and untouched by suite
// edits.
func Calibration() Cell {
	return Cell{Engine: engine.CsimMV, Circuit: "s1494", Model: ModelStuck, Vectors: Det()}
}

// SuiteNames lists the predefined suites in -suite flag order.
func SuiteNames() []string { return []string{"quick", "paper", "full"} }

// Suite returns the named predefined suite.
//
//   - "quick": small circuits, every engine family — the CI bench-gate
//     grid, a few seconds end to end.
//   - "paper": the Table 3 grid up to s5378 (all csim variants, PROOFS)
//     plus transition and oracle spot cells — a couple of minutes.
//   - "full": paper plus the two large stand-ins, csim-grid cells, and
//     reduced-vector oracle cells — tens of minutes.
func Suite(name string) ([]Cell, error) {
	switch name {
	case "quick":
		return quickSuite(), nil
	case "paper":
		return paperSuite(), nil
	case "full":
		return fullSuite(), nil
	}
	return nil, fmt.Errorf("bench: unknown suite %q (have %v)", name, SuiteNames())
}

// quickSuite is the CI regression grid: every engine family on circuits
// small enough that warmup + 3 trials finish in seconds.
func quickSuite() []Cell {
	var cells []Cell
	for _, ckt := range []string{"s298", "s444", "s1494"} {
		for _, eng := range []string{
			engine.CsimV, engine.CsimM, engine.CsimMV, engine.CsimC, engine.PROOFS,
		} {
			cells = append(cells, Cell{Engine: eng, Circuit: ckt, Model: ModelStuck, Vectors: Det()})
		}
	}
	cells = append(cells,
		// One oracle cell pins the throughput floor.
		Cell{Engine: engine.Serial, Circuit: "s298", Model: ModelStuck, Vectors: Det()},
		// The service benchmark's grid-local job: the scheduler's plan, K
		// compiled workers.
		Cell{Engine: engine.CsimGrid, Circuit: "s5378", Model: ModelTransition, Vectors: Rand(256)},
		// The same job under one word: the half-empty-word regime, held
		// by the exact work counters.
		Cell{Engine: engine.CsimGrid, Circuit: "s5378", Model: ModelTransition, Vectors: Rand(32)},
		// One transition cell exercises the second fault model.
		Cell{Engine: engine.CsimMV, Circuit: "s298", Model: ModelTransition, Vectors: Det()},
		// One compiled transition cell covers masked transition injection.
		Cell{Engine: engine.CsimC, Circuit: "s298", Model: ModelTransition, Vectors: Det()},
		// The good-machine throughput pair: interpreted event-driven vs
		// compiled straight-line evaluation on the largest stand-in
		// (BENCHMARKS.md "Interpreted vs compiled").
		Cell{Engine: engine.GoodSim, Circuit: "s35932", Model: ModelStuck, Vectors: Det()},
		Cell{Engine: engine.GoodC, Circuit: "s35932", Model: ModelStuck, Vectors: Det()},
	)
	return cells
}

// paperCircuits is the Table 3 list up to s5378 (s35932 is full-suite
// only: a single cell runs tens of seconds).
var paperCircuits = []string{
	"s298", "s344", "s349", "s382", "s386", "s400", "s444", "s510",
	"s526", "s641", "s713", "s820", "s832", "s953", "s1196", "s1238",
	"s1423", "s1488", "s1494", "s5378",
}

// paperSuite reproduces the Table 3 measurement grid with deterministic
// sets, plus transition-model and oracle spot checks.
func paperSuite() []Cell {
	var cells []Cell
	for _, ckt := range paperCircuits {
		for _, eng := range []string{
			engine.CsimV, engine.CsimM, engine.CsimMV, engine.PROOFS,
		} {
			cells = append(cells, Cell{Engine: eng, Circuit: ckt, Model: ModelStuck, Vectors: Det()})
		}
	}
	for _, ckt := range []string{"s298", "s444", "s1238", "s1494"} {
		cells = append(cells, Cell{Engine: engine.CsimMV, Circuit: ckt, Model: ModelTransition, Vectors: Det()})
	}
	for _, ckt := range []string{"s298", "s1494", "s5378"} {
		cells = append(cells, Cell{Engine: engine.CsimC, Circuit: ckt, Model: ModelStuck, Vectors: Det()})
	}
	for _, ckt := range []string{"s298", "s344", "s386"} {
		cells = append(cells, Cell{Engine: engine.Serial, Circuit: ckt, Model: ModelStuck, Vectors: Det()})
	}
	return cells
}

// fullSuite extends the paper grid with the s35932 row, csim-grid cells,
// and reduced-vector oracle cells (the serial engine is
// O(faults × vectors × gates); full-length oracle runs on the large
// circuits would take hours).
func fullSuite() []Cell {
	cells := paperSuite()
	for _, eng := range []string{
		engine.CsimV, engine.CsimM, engine.CsimMV, engine.CsimC, engine.PROOFS,
	} {
		cells = append(cells, Cell{Engine: eng, Circuit: "s35932", Model: ModelStuck, Vectors: Det(), Heavy: true})
	}
	// The good-machine pair on the same circuit, full-length, so the
	// interpreted-vs-compiled ratio is also recorded at full scale.
	cells = append(cells,
		Cell{Engine: engine.GoodSim, Circuit: "s35932", Model: ModelStuck, Vectors: Det()},
		Cell{Engine: engine.GoodC, Circuit: "s35932", Model: ModelStuck, Vectors: Det()},
	)
	cells = append(cells,
		// The grid pinned at two shards on both stand-ins, and the
		// scheduler's plan.
		Cell{Engine: engine.CsimGrid, Circuit: "s5378", Model: ModelStuck, Vectors: Det(), Workers: 2},
		Cell{Engine: engine.CsimGrid, Circuit: "s35932", Model: ModelStuck, Vectors: Det(), Workers: 2, Heavy: true},
		Cell{Engine: engine.CsimGrid, Circuit: "s5378", Model: ModelStuck, Vectors: Det()},
	)
	cells = append(cells,
		Cell{Engine: engine.Serial, Circuit: "s5378", Model: ModelStuck, Vectors: Rand(8), Heavy: true},
		Cell{Engine: engine.Serial, Circuit: "s35932", Model: ModelStuck, Vectors: Rand(2), Heavy: true},
	)
	return cells
}

// sortedPhaseNames returns the keys of a phase-duration map in stable
// (sorted) order; every consumer that renders phases iterates this.
func sortedPhaseNames(phases map[string]int64) []string {
	names := make([]string, 0, len(phases))
	for n := range phases {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
