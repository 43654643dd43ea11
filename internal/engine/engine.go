// Package engine is the one place an engine name is interpreted: the
// registry of simulator configurations and the one function that runs
// any of them. The CLIs, the table/bench harness, the service and the
// facade look a name up here and call Run; none of them dispatches on
// the name itself.
package engine

import (
	"repro/internal/csim"
)

// The registered engine names. Csim, CsimV, CsimM and CsimMV are the
// paper's variants; CsimEager and CsimReconv exist for ablations.
const (
	Csim       = "csim"
	CsimV      = "csim-V"
	CsimM      = "csim-M"
	CsimMV     = "csim-MV"
	CsimEager  = "csim-MV-eagerdrop"
	CsimReconv = "csim-MV-reconvergent"
	// CsimGrid is csim-C on the scheduler's worker count, and the engine
	// a coordinator's pinned fault shards name.
	CsimGrid = "csim-grid"
	// CsimC is the compiled backend: the circuit lowered once into
	// branch-free levelized straight-line evaluation over flat word
	// arrays, a packed 64-cycle-per-word good trace, and per-fault
	// bit-parallel cone re-evaluation (internal/compiled).
	CsimC = "csim-C"
	// PROOFS is the bit-parallel single-fault-propagation baseline.
	PROOFS = "PROOFS"
	// Serial is the brute-force oracle: one full resimulation per fault.
	Serial = "serial"
	// GoodSim and GoodC run only the good machine — interpreted
	// event-driven and compiled straight-line — for the throughput
	// comparison in benchmark reports.
	GoodSim = "good-sim"
	GoodC   = "good-C"
)

// Artifact names the per-circuit artifact an engine consumes, so a
// caller with a cache (the service's compiled-circuit cache, the
// harness memo) knows what to fetch into Options.
type Artifact uint8

// The artifacts.
const (
	// NoArtifact: the engine needs nothing beyond the universe.
	NoArtifact Artifact = iota
	// MacroPlan: Options.Plan, the macro plan for Info.Config.
	MacroPlan
	// Program: Options.Program, the compiled program.
	Program
)

// Info describes one registered engine. cmd/tables -engines prints the
// first three fields, and CI diffs them against the README engine table.
type Info struct {
	// Name is the -engine flag value and the JobSpec engine.
	Name string
	// Kind classifies the engine: "concurrent" (event-driven concurrent
	// fault simulation), "parallel", "compiled", "baseline", or "good"
	// (good-machine only, no faults).
	Kind string
	// Description is a one-line summary, kept in sync with README.md.
	Description string
	// Served says whether csimd accepts the name.
	Served bool
	// Artifact is the cached artifact the engine consumes.
	Artifact Artifact
	// Config is a concurrent engine's simulator variant, and the
	// configuration its macro plan is extracted for.
	Config csim.Config
	// StuckOnly marks an engine that rejects transition faults.
	StuckOnly bool
	// Sharded marks the engine that takes pinned-shard coordinates and
	// whose whole-universe jobs ask the scheduler for their worker count.
	Sharded bool
}

// registry is every registered engine in presentation order; never
// written after initialization.
var registry = func() []Info {
	eager, reconv := csim.MV(), csim.MV()
	eager.EagerDrop = true
	reconv.ReconvergentMacros = true
	return []Info{
		{Name: Csim, Kind: "concurrent", Served: true, Artifact: MacroPlan,
			Description: "concurrent fault simulation, no improvements (ablation baseline)"},
		{Name: CsimV, Kind: "concurrent", Served: true, Artifact: MacroPlan, Config: csim.V(),
			Description: "concurrent with the paper's V improvement (visible/invisible list splitting)"},
		{Name: CsimM, Kind: "concurrent", Served: true, Artifact: MacroPlan, Config: csim.M(),
			Description: "concurrent with the paper's M improvement (macro gates)"},
		{Name: CsimMV, Kind: "concurrent", Served: true, Artifact: MacroPlan, Config: csim.MV(),
			Description: "concurrent with both improvements; the paper's headline engine"},
		{Name: CsimEager, Kind: "concurrent", Artifact: MacroPlan, Config: eager,
			Description: "csim-MV with eager full-scan fault dropping (ablation)"},
		{Name: CsimReconv, Kind: "concurrent", Artifact: MacroPlan, Config: reconv,
			Description: "csim-MV with reconvergent-macro extension (ablation)"},
		{Name: CsimGrid, Kind: "parallel", Served: true, Artifact: Program, Sharded: true,
			Description: "csim-C on the scheduler's K: one worker per 256-fault chunk, bounded by the processors; also one pinned fault shard of a fleet job"},
		{Name: CsimC, Kind: "compiled", Served: true, Artifact: Program,
			Description: "compiled bit-parallel backend: levelized straight-line code, packed 64-vector passes over the fault cone; a job's workers share one good trace"},
		{Name: PROOFS, Kind: "baseline", Served: true, StuckOnly: true,
			Description: "bit-parallel single-fault-propagation baseline (PROOFS-style)"},
		{Name: Serial, Kind: "baseline", Served: true,
			Description: "brute-force oracle: one full resimulation per fault"},
		{Name: GoodSim, Kind: "good",
			Description: "interpreted event-driven good machine only, no faults"},
		{Name: GoodC, Kind: "good", Artifact: Program,
			Description: "compiled good machine only: the straight-line fused table-lookup stream"},
	}
}()

// Engines returns every registered engine in presentation order. The
// slice is freshly allocated; callers may reorder or filter it.
func Engines() []Info { return append([]Info(nil), registry...) }

// ByName looks up a registered engine. The second result is false when
// the name is not registered.
func ByName(name string) (Info, bool) {
	for _, e := range registry {
		if e.Name == name {
			return e, true
		}
	}
	return Info{}, false
}

// Names lists the registered engines keep accepts, in presentation order.
func Names(keep func(Info) bool) []string {
	var names []string
	for _, e := range registry {
		if keep(e) {
			names = append(names, e.Name)
		}
	}
	return names
}
