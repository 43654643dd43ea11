// Package engine is the one place an engine name is interpreted: the
// registry of simulator configurations and the one function that runs
// any of them. The CLIs, the table harness, the service and the
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
	// CsimGrid runs exactly csim-C's path; only its results report
	// windows. Pinned by benchmark/ (its workloads submit the name); goes
	// with the `[benchmark]` yardstick refresh.
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
)

// Info describes one registered engine. TestReadmeEngineTable holds the
// first three fields to the README engine table.
type Info struct {
	// Name is the -engine flag value and the JobSpec engine.
	Name string
	// Kind classifies the engine: "concurrent" (event-driven concurrent
	// fault simulation), "compiled" (the bit-parallel kernel, which alone
	// takes pinned-shard coordinates) or "baseline".
	Kind string
	// Description is a one-line summary, kept in sync with README.md.
	Description string
	// Served says whether csimd accepts the name.
	Served bool
	// Config is a concurrent engine's simulator variant, and the
	// configuration its macro plan is extracted for.
	Config csim.Config
	// StuckOnly marks an engine that rejects transition faults.
	StuckOnly bool
}

// registry is every registered engine in presentation order; never
// written after initialization.
var registry = func() []Info {
	eager, reconv := csim.MV(), csim.MV()
	eager.EagerDrop = true
	reconv.ReconvergentMacros = true
	return []Info{
		{Name: Csim, Kind: "concurrent", Served: true,
			Description: "concurrent fault simulation, no improvements (ablation baseline)"},
		{Name: CsimV, Kind: "concurrent", Served: true, Config: csim.V(),
			Description: "concurrent with the paper's V improvement (visible/invisible list splitting)"},
		{Name: CsimM, Kind: "concurrent", Served: true, Config: csim.M(),
			Description: "concurrent with the paper's M improvement (macro gates)"},
		{Name: CsimMV, Kind: "concurrent", Served: true, Config: csim.MV(),
			Description: "concurrent with both improvements; the paper's headline engine"},
		{Name: CsimEager, Kind: "concurrent", Config: eager,
			Description: "csim-MV with eager full-scan fault dropping (ablation)"},
		{Name: CsimReconv, Kind: "concurrent", Config: reconv,
			Description: "csim-MV with reconvergent-macro extension (ablation)"},
		{Name: CsimGrid, Kind: "compiled", Served: true,
			Description: "csim-C under the name benchmark/ submits: the same run, and its results report one vector window"},
		{Name: CsimC, Kind: "compiled", Served: true,
			Description: "compiled bit-parallel backend: levelized straight-line code, packed 64-vector passes over the fault cone; one worker per 256-fault chunk within the budget, all sharing one good trace; also one pinned fault shard of a fleet job"},
		{Name: PROOFS, Kind: "baseline", Served: true, StuckOnly: true,
			Description: "bit-parallel single-fault-propagation baseline (PROOFS-style)"},
		{Name: Serial, Kind: "baseline", Served: true,
			Description: "brute-force oracle: one full resimulation per fault"},
	}
}()

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
