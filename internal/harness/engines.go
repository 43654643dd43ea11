package harness

// EngineInfo describes one registered engine for documentation and
// drift checks: cmd/tables -engines prints this registry, and CI diffs
// it against the README engine table so the two cannot drift apart.
type EngineInfo struct {
	// Name is the Engine constant's string form (the -engine flag value).
	Name Engine
	// Kind classifies the engine: "concurrent" (event-driven concurrent
	// fault simulation), "parallel" (sharded concurrent), "compiled",
	// "baseline", or "good" (good-machine only, no faults).
	Kind string
	// Description is a one-line summary, kept in sync with README.md.
	Description string
}

// Engines returns every registered engine in presentation order. The
// slice is freshly allocated; callers may reorder or filter it.
func Engines() []EngineInfo {
	return []EngineInfo{
		{CsimPlain, "concurrent", "concurrent fault simulation, no improvements (ablation baseline)"},
		{CsimV, "concurrent", "concurrent with the paper's V improvement (visible/invisible list splitting)"},
		{CsimM, "concurrent", "concurrent with the paper's M improvement (macro gates)"},
		{CsimMV, "concurrent", "concurrent with both improvements; the paper's headline engine"},
		{CsimEager, "concurrent", "csim-MV with eager full-scan fault dropping (ablation)"},
		{CsimReconv, "concurrent", "csim-MV with reconvergent-macro extension (ablation)"},
		{CsimP, "parallel", "csim-MV fault-partitioned over worker goroutines sharing one good trace"},
		{CsimGrid, "parallel", "fault-sharded grid; the scheduler plans K: workers of the compiled kernel from 64 vectors on, interpreted csim-MV shards sharing one good trace below"},
		{CsimC, "compiled", "compiled bit-parallel backend: levelized straight-line code, packed 64-vector passes over the fault cone; a service job's workers share one good trace"},
		{PROOFS, "baseline", "bit-parallel single-fault-propagation baseline (PROOFS-style)"},
		{Serial, "baseline", "brute-force oracle: one full resimulation per fault"},
		{GoodSim, "good", "interpreted event-driven good machine only, no faults"},
		{GoodC, "good", "compiled good machine only: the straight-line fused table-lookup stream"},
	}
}

// EngineByName looks up a registered engine by its string form. The
// second result is false when the name is not registered.
func EngineByName(name string) (EngineInfo, bool) {
	for _, e := range Engines() {
		if string(e.Name) == name {
			return e, true
		}
	}
	return EngineInfo{}, false
}
