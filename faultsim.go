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
	"log/slog"

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
	"repro/internal/parallel"
	"repro/internal/proofs"
	"repro/internal/serial"
	"repro/internal/service"
	"repro/internal/vectors"
)

// Core circuit types.
type (
	// Circuit is a levelized gate-level synchronous sequential circuit.
	Circuit = netlist.Circuit
	// Gate is one circuit node.
	Gate = netlist.Gate
	// GateID indexes a gate within its circuit.
	GateID = netlist.GateID
	// CircuitSpec prescribes a synthetic benchmark's shape.
	CircuitSpec = gen.Spec
)

// Fault model types.
type (
	// Fault is a single stuck-at or transition fault.
	Fault = faults.Fault
	// FaultKind is SA0, SA1, STR or STF.
	FaultKind = faults.Kind
	// Universe is a fault list over a circuit.
	Universe = faults.Universe
	// Result accumulates detections.
	Result = faults.Result
)

// Simulation types.
type (
	// Config selects the concurrent simulator variant.
	Config = csim.Config
	// GridPlan is the scheduler's fault-split decision.
	GridPlan = parallel.Plan
	// JobShape describes one simulation job to the unified scheduler.
	JobShape = parallel.JobShape
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
	// CompiledGood is the compiled good machine: the straight-line
	// evaluator over the compiled program, no fault simulation.
	CompiledGood = compiled.Good
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
	// Observer bundles the observability layer handed to a run: a metric
	// registry, a phase tracer, and a fault-lifecycle log, any of which
	// may be nil. A nil *Observer disables observation entirely at zero
	// per-event cost.
	Observer = obs.Observer
	// MetricRegistry is a typed registry of counters, gauges and
	// histograms.
	MetricRegistry = obs.Registry
	// PhaseTracer records span-style phase timings and can emit a
	// chrome://tracing JSON trace.
	PhaseTracer = obs.Tracer
	// FaultEventLog records per-fault lifecycle events (injected,
	// diverged, became-visible, latched, detected, dropped).
	FaultEventLog = obs.FaultLog
	// FaultEvent is one fault-lifecycle event.
	FaultEvent = obs.FaultEvent
	// Logger is the structured logger handed to a run through
	// Observer.Log: a nil-safe slog wrapper. A nil *Logger disables
	// logging at zero per-record cost.
	Logger = obs.Logger
	// FlightRecorder is the bounded per-job ring buffer of lifecycle
	// events that backs a postmortem dump; nil disables recording.
	FlightRecorder = obs.FlightRecorder
	// FlightEvent is one recorded lifecycle event.
	FlightEvent = obs.FlightEvent
)

// Fault kinds.
const (
	SA0 = faults.SA0 // stuck-at-0
	SA1 = faults.SA1 // stuck-at-1
	STR = faults.STR // slow-to-rise transition fault
	STF = faults.STF // slow-to-fall transition fault
)

// ParseBench parses an ISCAS-89 .bench netlist.
func ParseBench(name, text string) (*Circuit, error) {
	return netlist.ParseBenchString(name, text)
}

// ReadBench reads a .bench netlist from a stream.
func ReadBench(name string, r io.Reader) (*Circuit, error) {
	return netlist.ParseBench(name, r)
}

// WriteBench serializes a circuit in .bench format.
func WriteBench(w io.Writer, c *Circuit) error { return netlist.WriteBench(w, c) }

// GenerateCircuit builds a seeded synthetic benchmark circuit.
func GenerateCircuit(spec CircuitSpec) (*Circuit, error) { return gen.Generate(spec) }

// Benchmark returns a circuit from the built-in suite (the genuine s27 or
// a published-shape stand-in such as "s5378").
func Benchmark(name string) (*Circuit, error) { return iscas.Get(name) }

// BenchmarkNames lists the built-in suite.
func BenchmarkNames() []string { return iscas.Names() }

// StuckFaults builds the equivalence-collapsed single stuck-at universe.
func StuckFaults(c *Circuit) *Universe { return faults.StuckCollapsed(c) }

// StuckFaultsAll builds the complete (uncollapsed) stuck-at universe.
func StuckFaultsAll(c *Circuit) *Universe { return faults.StuckAll(c) }

// TransitionFaults builds the §3 transition-fault universe.
func TransitionFaults(c *Circuit) *Universe { return faults.Transition(c) }

// Csim returns the base concurrent simulator configuration (no
// improvements); CsimV, CsimM and CsimMV enable the paper's variants.
func Csim() Config { return Config{} }

// CsimV enables visible/invisible fault-list splitting.
func CsimV() Config { return csim.V() }

// CsimM enables macro extraction.
func CsimM() Config { return csim.M() }

// CsimMV enables both improvements — the paper's best configuration.
func CsimMV() Config { return csim.MV() }

// GridConfig configures the grid engine (csim-grid): the compiled
// kernel on the scheduler's worker count.
type GridConfig struct {
	// FaultShards is the processor budget the scheduler plans within;
	// <= 0 means runtime.NumCPU(). The run uses one worker per chunk of
	// 256 faults at most.
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

// PlanGrid asks the scheduler for the fault split it would use for a
// job of the given shape. The decision is deterministic. Pinned by
// benchmark/; goes with the `[benchmark]` yardstick refresh.
func PlanGrid(sh JobShape) GridPlan { return parallel.Decide(sh) }

// NewObserver builds a fully enabled observability bundle: a fresh
// metric registry with a phase tracer feeding it. Attach a fault log by
// setting the Faults field; attach the bundle through Config.Obs or
// GridConfig.Obs.
func NewObserver() *Observer {
	reg := obs.NewRegistry()
	return &obs.Observer{Metrics: reg, Tracer: obs.NewTracer(reg)}
}

// NewFaultLog builds a fault-lifecycle event log for a universe of
// numFaults faults. track selects the fault IDs to record (nil = all);
// limit bounds the in-memory event count (0 = default).
func NewFaultLog(numFaults int, track []int32, limit int) *FaultEventLog {
	return obs.NewFaultLog(numFaults, track, limit)
}

// NewLogger wraps a slog handler into the nil-safe structured logger the
// engines accept through Observer.Log. A nil handler yields a nil
// (disabled) logger.
func NewLogger(h slog.Handler) *Logger { return obs.NewLogger(h) }

// NewFlightRecorder builds a bounded lifecycle ring buffer holding the
// most recent capacity events (capacity <= 0 uses the default).
func NewFlightRecorder(capacity int) *FlightRecorder {
	return obs.NewFlightRecorder(capacity)
}

// WithJobID returns a context carrying a correlation ID; the service
// client sends it as the X-Csim-Job-Id header and the server adopts it
// as the job's ID.
func WithJobID(ctx context.Context, id string) context.Context {
	return obs.WithJobID(ctx, id)
}

// JobIDFrom extracts the correlation ID from ctx ("" when absent).
func JobIDFrom(ctx context.Context) string { return obs.JobIDFrom(ctx) }

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

// NewCompiled builds the csim-C fault simulator, compiling the
// universe's circuit internally. To amortize compilation across
// universes (say, stuck-at and transition over one circuit), use
// CompileCircuit once and NewCompiledWith per universe.
func NewCompiled(u *Universe) (*CompiledSim, error) { return compiled.New(u) }

// NewCompiledWith builds a csim-C simulator over an already compiled
// program; the program must be compiled from the universe's circuit.
// Pinned by benchmark/; goes with the `[benchmark]` yardstick refresh.
func NewCompiledWith(p *CompiledProgram, u *Universe) (*CompiledSim, error) {
	return compiled.NewWith(p, u)
}

// SimulateCompiled runs the csim-C engine over the whole vector set.
// Detections are bit-identical to SimulateSerial.
func SimulateCompiled(u *Universe, vs *Vectors) (*Result, error) {
	sim, err := compiled.New(u)
	if err != nil {
		return nil, err
	}
	return sim.Run(vs), nil
}

// NewCompiledGood builds the compiled good machine over a program.
func NewCompiledGood(p *CompiledProgram) *CompiledGood { return p.NewGood() }

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
	// capacity, size and time bounds, and the observability bundle.
	ServeConfig = service.Config
	// Server is the networked fault-simulation service behind cmd/csimd:
	// an HTTP/JSON job API in front of a bounded queue and a worker pool
	// over this package's engines.
	Server = service.Server
	// ServeClient talks to a running csimd server: submit, poll, wait,
	// cancel, and read the metrics snapshot.
	ServeClient = service.Client
	// JobSpec describes one simulation job submitted to a Server: the
	// circuit (suite name or inline .bench), fault model, engine, and
	// vector spec.
	JobSpec = service.JobSpec
	// JobView is a job's status/result as the service reports it.
	JobView = service.JobView
	// JobResult is a finished job's payload: detections, coverage and
	// engine counters.
	JobResult = service.ResultView
	// JobPostmortem is a job's flight-recorder dump as served at
	// GET /api/v1/jobs/{id}/debug.
	JobPostmortem = service.Postmortem
)

// NewServer builds the fault-simulation service; call Start on it to
// serve, and Drain (graceful) or Close (hard) to stop.
func NewServer(cfg ServeConfig) *Server { return service.New(cfg) }

// NewServeClient builds a client for a csimd server's base URL, e.g.
// "http://127.0.0.1:8416".
func NewServeClient(baseURL string) *ServeClient { return service.NewClient(baseURL) }

// Distributed types (the csimd coordinator; see DESIGN.md §13).
type (
	// DistConfig tunes a distributed coordinator: the worker fleet's
	// base URLs, health-probe and shard-timeout bounds, retry policy,
	// and the observability bundle.
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

// SimulateDistributed runs one simulation job across a csimd worker
// fleet and waits for the merged result: a self-contained helper that
// brings up a coordinator-fronted server on a loopback port, submits
// spec, and tears everything down. The result is bit-identical to the
// same spec run locally. For anything beyond a one-shot — job streams,
// polling, cancellation — build a NewCoordinator-backed NewServer and
// use the job API.
func SimulateDistributed(ctx context.Context, cfg DistConfig, spec JobSpec) (*JobResult, error) {
	coord, err := dist.New(cfg)
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	srv := service.New(service.Config{Addr: "127.0.0.1:0", Runner: coord, Obs: cfg.Obs, Log: cfg.Log})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	defer srv.Close()
	v, err := service.NewClient("http://"+srv.Addr()).Run(ctx, spec, 0)
	if err != nil {
		return nil, err
	}
	if v.Status != service.StatusDone {
		return nil, &DistJobError{Status: string(v.Status), Msg: v.Error}
	}
	return v.Result, nil
}

// DistJobError reports a distributed job that ended in a non-done
// terminal state (failed or cancelled).
type DistJobError struct {
	// Status is the terminal job status.
	Status string
	// Msg is the job's error line.
	Msg string
}

// Error renders the terminal status and the job's error line.
func (e *DistJobError) Error() string {
	return "distributed job " + e.Status + ": " + e.Msg
}
