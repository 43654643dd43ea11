package engine

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/macro"
	"repro/internal/netlist"
)

// Models lists the fault models a universe is built for, in the spelling
// the CLIs and the job spec use.
var Models = []string{"stuck", "stuck-all", "transition"}

// Artifacts is one circuit's derived artifacts, each built on first use
// and then kept: fault universes by model, macro plans by extraction
// setting, and the compiled program. Every artifact is immutable once
// built — the engines read universes, plans and programs without writing
// them — so one set serves any number of concurrent runs. Beside the
// program sits the pool of idle compiled-kernel workers its runs borrow,
// which garbage collection empties. The service caches one set per
// circuit, the harness keeps one per suite circuit, and a Run given none
// prepares its own.
type Artifacts struct {
	// Circuit is the circuit every artifact is derived from.
	Circuit *netlist.Circuit

	mu sync.Mutex
	//simlint:guarded_by(mu)
	universes map[string]*faults.Universe
	//simlint:guarded_by(mu)
	plans map[csim.Config]*macro.Plan
	// workers holds the compiled program and the idle kernel workers
	// over it.
	//simlint:guarded_by(mu)
	workers *compiled.Pool
}

// Prepare starts an empty artifact set over c.
func Prepare(c *netlist.Circuit) *Artifacts {
	return &Artifacts{
		Circuit:   c,
		universes: map[string]*faults.Universe{},
		plans:     map[csim.Config]*macro.Plan{},
	}
}

// PrepareProgram is Prepare over p's circuit with p as its compiled
// program: the facade's GridConfig.Program, which goes with the
// `[benchmark]` yardstick refresh.
func PrepareProgram(p *compiled.Program) *Artifacts {
	a := Prepare(p.Circuit())
	a.mu.Lock()
	a.workers = compiled.NewPool(p)
	a.mu.Unlock()
	return a
}

// Universe returns the fault universe for a model in Models, collapsing
// it on first use.
func (a *Artifacts) Universe(model string) (*faults.Universe, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if u, ok := a.universes[model]; ok {
		return u, nil
	}
	var u *faults.Universe
	switch model {
	case "stuck":
		u = faults.StuckCollapsed(a.Circuit)
	case "stuck-all":
		u = faults.StuckAll(a.Circuit)
	case "transition":
		u = faults.Transition(a.Circuit)
	default:
		return nil, fmt.Errorf("engine: unknown fault model %q (models: %s)", model, strings.Join(Models, " | "))
	}
	a.universes[model] = u
	return u, nil
}

// Plan returns the macro plan for a csim configuration, extracting it on
// first use: configurations that agree on Macros and ReconvergentMacros
// share one plan.
func (a *Artifacts) Plan(cfg csim.Config) (*macro.Plan, error) {
	key := csim.Config{Macros: cfg.Macros, ReconvergentMacros: cfg.ReconvergentMacros}
	a.mu.Lock()
	defer a.mu.Unlock()
	if p, ok := a.plans[key]; ok {
		return p, nil
	}
	p, err := csim.NewPlan(a.Circuit, cfg)
	if err != nil {
		return nil, err
	}
	a.plans[key] = p
	return p, nil
}

// workerPool returns the pool of compiled-kernel workers over the
// circuit's program, lowering the program on first use.
func (a *Artifacts) workerPool() *compiled.Pool {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.workers == nil {
		a.workers = compiled.NewPool(compiled.Compile(a.Circuit))
	}
	return a.workers
}

// Warm builds what the named engine reads from the set, so that a Run
// given the set spends none of its time building it.
func (a *Artifacts) Warm(name string) error {
	info, ok := ByName(name)
	if !ok {
		return unknownEngine(name)
	}
	_, _, err := a.inputs(info)
	return err
}

// inputs builds, or finds in the set, what an engine reads besides its
// universe: the compiled program's worker pool for a compiled engine, the
// macro plan for a concurrent engine's Config, nothing for the others.
func (a *Artifacts) inputs(info Info) (*macro.Plan, *compiled.Pool, error) {
	switch info.Kind {
	case "compiled":
		return nil, a.workerPool(), nil
	case "baseline":
		return nil, nil, nil
	}
	plan, err := a.Plan(info.Config)
	return plan, nil, err
}
