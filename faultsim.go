// Package faultsim is a concurrent fault simulator for synchronous
// sequential circuits, reproducing Lee and Reddy, "On Efficient Concurrent
// Fault Simulation for Synchronous Sequential Circuits" (DAC 1992).
//
// It simulates one good machine and many faulty machines together over
// gate-level ISCAS-89 style netlists, supporting the single stuck-at and
// the gate-input transition (gross delay) fault models, with the paper's
// three engineering improvements — event-driven fault dropping,
// visible/invisible fault-list splitting, and fanout-free-region macro
// extraction — plus a PROOFS-style bit-parallel baseline, a brute-force
// serial oracle, a deterministic sequential test generator, and a seeded
// benchmark-circuit generator.
//
// Quick start:
//
//	c, _ := faultsim.ParseBench("adder", benchText)
//	u := faultsim.StuckFaults(c)
//	sim, _ := faultsim.New(u, faultsim.CsimMV())
//	res := sim.Run(faultsim.RandomVectors(c, 1000, 1))
//	fmt.Printf("coverage %.1f%%\n", 100*res.Coverage())
//
// The subsystem packages under internal/ carry the implementation; this
// package is the supported surface.
package faultsim

import (
	"context"
	"errors"
	"io"

	"repro/internal/atpg"
	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/dist"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/goodsim"
	"repro/internal/iscas"
	"repro/internal/macro"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/proofs"
	"repro/internal/serial"
	"repro/internal/service"
	"repro/internal/vectors"
)

// Core circuit types.
type (
	// Circuit is a levelized gate-level synchronous sequential circuit.
	Circuit = netlist.Circuit
	// CircuitSpec prescribes a synthetic benchmark's shape.
	CircuitSpec = gen.Spec
)

// Fault model types.
type (
	// Universe is a fault list over a circuit.
	Universe = faults.Universe
	// Result accumulates detections.
	Result = faults.Result
)

// Simulation types.
type (
	// Config selects the concurrent simulator variant.
	Config = csim.Config
	// Simulator is the concurrent fault simulator (the paper's csim).
	Simulator = csim.Simulator
	// SimStats instruments a concurrent-simulation run.
	SimStats = csim.Stats
	// Proofs is the PROOFS-style bit-parallel baseline simulator.
	Proofs = proofs.Sim
	// GoodSim is the fault-free reference simulator.
	GoodSim = goodsim.Sim
	// CompiledProgram is a circuit lowered once for the compiled
	// bit-parallel engine (csim-C): branch-free levelized straight-line
	// evaluation over flat word arrays. Immutable and shareable across
	// concurrent simulators.
	CompiledProgram = compiled.Program
	// CompiledSim is the csim-C fault simulator: a packed good-machine
	// trace plus per-fault bit-parallel cone re-evaluation, 64 vectors
	// per pass.
	CompiledSim = compiled.Sim
	// MacroPlan is a fanout-free-region macro-extraction plan over a
	// circuit (Config.Plan).
	MacroPlan = macro.Plan
	// Vectors is an ordered test sequence.
	Vectors = vectors.Set
	// ATPGOptions tunes the deterministic test generator.
	ATPGOptions = atpg.Options
	// ATPGResult reports a generation campaign.
	ATPGResult = atpg.Result
)

// Observability types (see OBSERVABILITY.md).
type (
	// Observer bundles the observability layer: a flight recorder and a
	// fault-lifecycle log for a run, a metric registry for a server or a
	// coordinator, any of which may be nil. A nil *Observer disables
	// observation entirely at zero per-event cost.
	Observer = obs.Observer
	// FaultEventLog records per-fault lifecycle events (injected,
	// diverged, became-visible, latched, detected, dropped).
	FaultEventLog = obs.FaultLog
	// FlightEvent is one event of a job's flight record, as served at
	// GET /api/v1/jobs/{id}/debug.
	FlightEvent = obs.FlightEvent
)

// ParseBench parses an ISCAS-89 .bench netlist.
func ParseBench(name, text string) (*Circuit, error) {
	return netlist.ParseBenchString(name, text)
}

// WriteBench serializes a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return netlist.WriteBench(w, c) }

// GenerateCircuit builds a seeded synthetic benchmark circuit.
func GenerateCircuit(spec CircuitSpec) (*Circuit, error) { return gen.Generate(spec) }

// Benchmark returns a circuit from the built-in suite (the genuine s27 or
// a published-shape stand-in such as "s5378").
func Benchmark(name string) (*Circuit, error) { return iscas.Get(name) }

// StuckFaults builds the equivalence-collapsed single stuck-at universe.
func StuckFaults(c *Circuit) *Universe { return faults.StuckCollapsed(c) }

// TransitionFaults builds the §3 transition-fault universe.
func TransitionFaults(c *Circuit) *Universe { return faults.Transition(c) }

// CsimV enables visible/invisible fault-list splitting (the zero
// Config is the base simulator, with no improvements).
func CsimV() Config { return csim.V() }

// CsimMV enables both improvements — the paper's best configuration.
func CsimMV() Config { return csim.MV() }

// GridConfig configures the grid engine (csim-grid): the compiled
// kernel on a processor budget.
type GridConfig struct {
	// FaultShards is the processor budget; <= 0 means one. The run uses
	// one worker per chunk of 256 faults at most.
	FaultShards int
	// Config is ignored: the grid has one kernel and it takes no csim
	// configuration. Pinned by benchmark/ (it assigns Config.Plan); goes
	// with the `[benchmark]` yardstick refresh.
	Config Config
	// Program is the circuit's CompiledProgram to reuse; nil compiles it
	// per run. It seeds the run's artifact set, and goes with the
	// `[benchmark]` yardstick refresh.
	Program *CompiledProgram
	// Obs attaches the observability layer; nil disables it.
	Obs *Observer
	// err is CsimGrid's verdict on its windows argument; SimulateGrid
	// returns it.
	err error
}

// CsimGrid configures the grid engine on a budget of faultShards
// processors. The signature is pinned by benchmark/ and goes with
// the `[benchmark]` yardstick refresh: windows is accepted for source
// compatibility and must be <= 1, or SimulateGrid errors.
func CsimGrid(faultShards, windows int) GridConfig {
	cfg := GridConfig{FaultShards: faultShards}
	if windows > 1 {
		cfg.err = errors.New("faultsim: vector windows were removed; csim-grid plans fault shards only")
	}
	return cfg
}

// SimulateGrid runs the csim-grid engine to completion (the facade
// passes no context) and returns the detections and summed counters.
// Pinned by benchmark/; goes with the `[benchmark]` yardstick refresh.
func SimulateGrid(u *Universe, vs *Vectors, cfg GridConfig) (*Result, SimStats, error) {
	if cfg.err != nil {
		return nil, SimStats{}, cfg.err
	}
	opt := engine.Options{Workers: cfg.FaultShards, Obs: cfg.Obs}
	if cfg.Program != nil {
		opt.Artifacts = engine.PrepareProgram(cfg.Program)
	}
	return engine.Run(context.Background(), engine.CsimGrid, u, vs, opt)
}

// JobShape describes one simulation job to PlanGrid. Pinned by
// benchmark/, with GridPlan and PlanGrid; they go with the
// `[benchmark]` yardstick refresh.
type JobShape struct {
	// Gates and Vectors are not read: the split depends on the faults.
	Gates, Faults, Vectors int
	// MaxProcs is the processor budget; <= 0 means one.
	MaxProcs int
}

// GridPlan is a job's fault split: FaultShards compiled workers.
type GridPlan struct{ FaultShards int }

// PlanGrid reports the fault split a job of the given shape runs on:
// one compiled worker per chunk of 256 faults, within the budget.
func PlanGrid(sh JobShape) GridPlan {
	return GridPlan{FaultShards: compiled.Workers(sh.MaxProcs, sh.Faults)}
}

// NewObserver builds an observability bundle holding a fresh metric
// registry. Engines write no metrics — a run's counters are its
// SimStats — so the registry is for a service or a coordinator the
// bundle is handed to. Attach a fault log by setting the Faults field;
// attach the bundle through Config.Obs or GridConfig.Obs.
func NewObserver() *Observer {
	return &obs.Observer{Metrics: obs.NewRegistry()}
}

// NewFaultLog builds a fault-lifecycle event log for a universe of
// numFaults faults. track selects the fault IDs to record (nil = all);
// limit bounds the in-memory event count (0 = default).
func NewFaultLog(numFaults int, track []int32, limit int) *FaultEventLog {
	return obs.NewFaultLog(numFaults, track, limit)
}

// New builds a concurrent fault simulator over a universe.
func New(u *Universe, cfg Config) (*Simulator, error) { return csim.New(u, cfg) }

// NewProofs builds the PROOFS baseline simulator (stuck-at only).
func NewProofs(u *Universe) (*Proofs, error) { return proofs.New(u) }

// NewGoodSim builds a fault-free simulator. Pinned by benchmark/; goes
// with the `[benchmark]` yardstick refresh.
func NewGoodSim(c *Circuit) *GoodSim { return goodsim.New(c) }

// CompileCircuit lowers a circuit for the csim-C engine. The signature
// is pinned by benchmark/ and goes with the `[benchmark]`
// yardstick refresh: plan is ignored.
func CompileCircuit(c *Circuit, plan *MacroPlan) *CompiledProgram {
	return compiled.Compile(c)
}

// NewCompiledWith builds a csim-C simulator over an already compiled
// program; the program must be compiled from the universe's circuit.
// One program serves every universe over that circuit (say, stuck-at
// and transition).
// Pinned by benchmark/; goes with the `[benchmark]` yardstick refresh.
func NewCompiledWith(p *CompiledProgram, u *Universe) (*CompiledSim, error) {
	return compiled.NewWith(p, u)
}

// ExtractMacros builds the fanout-free-region macro plan csim-M/csim-MV
// use (maxInputs <= 0 uses the default cap). Pinned by benchmark/; goes
// with the `[benchmark]` yardstick refresh.
func ExtractMacros(c *Circuit, maxInputs int) (*MacroPlan, error) {
	if maxInputs <= 0 {
		maxInputs = macro.DefaultMaxInputs
	}
	return macro.Extract(c, maxInputs)
}

// SimulateSerial runs the brute-force oracle (one resimulation per fault).
func SimulateSerial(u *Universe, vs *Vectors) *Result {
	res, _ := serial.Simulate(context.Background(), u, vs) // a background context is never cancelled
	return res
}

// RandomVectors generates n seeded random binary test vectors.
func RandomVectors(c *Circuit, n int, seed int64) *Vectors {
	return vectors.Random(c, n, seed)
}

// ParseVectors parses a vector file (one 0/1/X line per cycle).
func ParseVectors(text string, numPIs int) (*Vectors, error) {
	return vectors.ParseString(text, numPIs)
}

// GenerateTests runs the deterministic sequential test generator.
func GenerateTests(u *Universe, opts ATPGOptions) ATPGResult { return atpg.Generate(u, opts) }

// Service types (the csimd server and its client; see DESIGN.md §10).
type (
	// ServeConfig tunes the fault-simulation service: listen address,
	// worker-pool size, admission-queue depth, compiled-circuit cache
	// capacity, the inline-body bound, retention, and the metric
	// registry.
	ServeConfig = service.Config
	// Server is the networked fault-simulation service behind cmd/csimd:
	// an HTTP/JSON job API in front of a bounded queue and a worker pool
	// over this package's engines.
	Server = service.Server
)

// NewServer builds the fault-simulation service; call Start on it to
// serve, and Drain (graceful) or Close (hard) to stop.
func NewServer(cfg ServeConfig) *Server { return service.New(cfg) }

// Distributed types (the csimd coordinator; see DESIGN.md §13).
type (
	// DistConfig tunes a distributed coordinator: the worker fleet's
	// base URLs, health-probe spacing, shards per worker, how long a
	// worker holds a shard request, and the observability bundle.
	DistConfig = dist.Config
	// Coordinator fans jobs out to a csimd worker fleet as
	// fault-partition shards and merges the results deterministically.
	// It implements the service tier's JobRunner, so NewServer with
	// ServeConfig.Runner set to a Coordinator serves the ordinary job
	// API distributed.
	Coordinator = dist.Coordinator
)

// NewCoordinator builds a distributed coordinator over a worker fleet
// and starts its health probers; Close stops them. Plug it into a
// server via ServeConfig.Runner.
func NewCoordinator(cfg DistConfig) (*Coordinator, error) { return dist.New(cfg) }
