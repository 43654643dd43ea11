// Package bench is the work-counter gate: it runs a fixed grid of cells
// (engine × circuit × fault model × vector source × worker budget) once
// each and compares the exact integers every run repeats — workload
// sizes, detections, the worker count K and the engines' work counters —
// against a checked-in baseline. Wall time is printed for the reader and
// never compared or stored: on a shared host it drifts more than any
// change worth gating, while the counters do not move unless the code
// does.
//
// The package owns no workload logic: circuits, vector sets, fault
// universes and engine execution all come from internal/harness, so a
// cell run here is a table cell of cmd/tables. cmd/bench is the CLI;
// BENCHMARKS.md says how to run and refresh the gate.
package bench

import (
	"fmt"

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

// Cell is one gate point: an engine run on one workload.
type Cell struct {
	// Engine is the simulator configuration under test.
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

// Quick is the gate's grid: every engine family on circuits small
// enough that one run of each finishes in seconds.
func Quick() []Cell {
	var cells []Cell
	for _, ckt := range []string{"s298", "s444", "s1494"} {
		for _, eng := range []string{
			engine.CsimV, engine.CsimM, engine.CsimMV, engine.CsimC, engine.PROOFS,
		} {
			cells = append(cells, Cell{Engine: eng, Circuit: ckt, Model: ModelStuck, Vectors: Det()})
		}
	}
	return append(cells,
		// One oracle cell.
		Cell{Engine: engine.Serial, Circuit: "s298", Model: ModelStuck, Vectors: Det()},
		// The service benchmark's grid-local job on a pinned budget of
		// two, so K is the same on every host.
		Cell{Engine: engine.CsimGrid, Circuit: "s5378", Model: ModelTransition, Vectors: Rand(256), Workers: 2},
		// The same job under one word: the half-empty-word regime.
		Cell{Engine: engine.CsimGrid, Circuit: "s5378", Model: ModelTransition, Vectors: Rand(32), Workers: 2},
		// One transition cell exercises the second fault model.
		Cell{Engine: engine.CsimMV, Circuit: "s298", Model: ModelTransition, Vectors: Det()},
		// One compiled transition cell covers masked transition injection.
		Cell{Engine: engine.CsimC, Circuit: "s298", Model: ModelTransition, Vectors: Det()},
		// The good-machine pair: interpreted event-driven vs compiled
		// straight-line evaluation on the largest stand-in (BENCHMARKS.md
		// "Interpreted vs compiled").
		Cell{Engine: engine.GoodSim, Circuit: "s35932", Model: ModelStuck, Vectors: Det()},
		Cell{Engine: engine.GoodC, Circuit: "s35932", Model: ModelStuck, Vectors: Det()},
	)
}
