package engine

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/goodsim"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/proofs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// Options is everything a caller may set on a run.
type Options struct {
	// Workers is the processor budget of the compiled kernel: csim-C and
	// a pinned shard run compiled.Workers(Workers, faults) workers, <= 0
	// meaning one; a whole csim-grid job hands it to the scheduler as
	// MaxProcs, <= 0 meaning runtime.NumCPU(). Other engines ignore it.
	Workers int
	// Shard and Of pin the run to fault shard Shard of an Of-way split —
	// parallel.Partition(u, Of)[Shard], what a coordinator dispatches to
	// a worker node. Of == 0 simulates the whole universe. Only a
	// Sharded engine takes coordinates.
	Shard, Of int
	// Artifacts is the circuit's artifact set: the run reads the engine's
	// macro plan or compiled program from it, building one it lacks; nil
	// prepares a set for this run alone. A set over another circuit is an
	// error.
	Artifacts *Artifacts
	// Obs attaches the observability layer; nil disables it.
	Obs *obs.Observer
	// ObsPrefix namespaces the run's metrics in the registry; empty
	// means the engine's name and a dot ("csim-MV."), so per-engine
	// counts stay distinguishable in one snapshot.
	ObsPrefix string
}

// Workers reports how many kernel workers Run uses for a whole-universe
// job over nfaults faults: the count a result reports. It is 0 for an
// engine that runs on the calling goroutine alone.
func Workers(name string, nfaults int, opt Options) int {
	switch name {
	case CsimC:
		return compiled.Workers(opt.Workers, nfaults)
	case CsimGrid:
		return parallel.Decide(parallel.JobShape{Faults: nfaults, MaxProcs: opt.Workers}).FaultShards
	}
	return 0
}

// Run simulates the vector set on the named engine and returns the
// detections and the engine's counters. Detections are bit-identical to
// the serial oracle on every engine that simulates faults; the good
// machines return an empty result. ctx stops the run with ctx.Err() at
// the next cycle (the csim family, PROOFS, good-sim), fault (serial) or
// fault chunk × 64-cycle block (csim-C, csim-grid). The engine's metrics
// land under Options.ObsPrefix: the csim family's per-cycle set, the
// compiled kernel's Stats tag table once at the end, PROOFS' mem_bytes
// and the good machines' good_evals.
func Run(ctx context.Context, name string, u *faults.Universe, vs *vectors.Set, opt Options) (*faults.Result, csim.Stats, error) {
	info, ok := ByName(name)
	if !ok {
		return nil, csim.Stats{}, unknownEngine(name)
	}
	if vs.NumPIs != len(u.Circuit.PIs) {
		return nil, csim.Stats{}, fmt.Errorf("engine: vector width %d, circuit has %d PIs", vs.NumPIs, len(u.Circuit.PIs))
	}
	a := opt.Artifacts
	if a == nil {
		a = Prepare(u.Circuit)
	} else if a.Circuit != u.Circuit {
		return nil, csim.Stats{}, fmt.Errorf("engine: artifacts are for circuit %q, universe is over %q",
			a.Circuit.Name, u.Circuit.Name)
	}
	if opt.Of != 0 || opt.Shard != 0 {
		if !info.Sharded {
			return nil, csim.Stats{}, fmt.Errorf("engine: %s takes no shard coordinates", name)
		}
		if opt.Shard < 0 || opt.Shard >= opt.Of {
			return nil, csim.Stats{}, fmt.Errorf("engine: shard index %d outside [0, %d)", opt.Shard, opt.Of)
		}
	}
	if opt.ObsPrefix == "" {
		opt.ObsPrefix = name + "."
	}
	// The scheduler's verdict is recorded before the cancellation check:
	// a job that times out before its engine starts still carries the
	// decision in its postmortem.
	if info.Sharded && opt.Of == 0 {
		opt.Workers = parallel.DecideObserved(parallel.JobShape{
			Gates:    len(u.Circuit.Gates),
			Faults:   u.NumFaults(),
			Vectors:  vs.Len(),
			MaxProcs: opt.Workers,
		}, opt.Obs).FaultShards
	}
	if err := ctx.Err(); err != nil {
		return nil, csim.Stats{}, err
	}
	plan, prog, err := a.inputs(info)
	if err != nil {
		return nil, csim.Stats{}, err
	}

	ob, reg := opt.Obs, opt.Obs.Registry()
	switch name {
	case CsimC, CsimGrid:
		return runCompiled(ctx, prog, u, vs, opt, info.Sharded)
	case Serial:
		sp := ob.Span("fault-sim")
		res, err := serial.Simulate(ctx, u, vs)
		sp.End()
		return res, csim.Stats{}, err
	case PROOFS:
		sim, err := proofs.New(u)
		if err != nil {
			return nil, csim.Stats{}, err
		}
		sp := ob.Span("fault-sim")
		err = cycles(ctx, vs, sim.Cycle)
		sp.End()
		if err != nil {
			return nil, csim.Stats{}, err
		}
		st := csim.Stats{MemBytes: sim.Stats().MemBytes}
		reg.Gauge(opt.ObsPrefix + "mem_bytes").Set(st.MemBytes)
		return sim.Result(), st, nil
	case GoodSim:
		s := goodsim.New(u.Circuit)
		sp := ob.Span("good-sim")
		err := cycles(ctx, vs, func(vec []logic.V) { s.Apply(vec); s.Clock() })
		sp.End()
		if err != nil {
			return nil, csim.Stats{}, err
		}
		reg.Counter(opt.ObsPrefix + "good_evals").Add(int64(s.Events))
		return faults.NewResult(u), csim.Stats{GoodEvals: s.Events}, nil
	case GoodC:
		g := prog.NewGood()
		sp := ob.Span("good-sim")
		g.Run(vs)
		sp.End()
		reg.Counter(opt.ObsPrefix + "good_evals").Add(g.Evals)
		return faults.NewResult(u), csim.Stats{GoodEvals: int(g.Evals)}, nil
	}
	// The csim family, which publishes its own metric set once per cycle.
	cfg := info.Config
	cfg.Plan, cfg.Obs, cfg.ObsPrefix = plan, ob, opt.ObsPrefix
	sim, err := csim.New(u, cfg)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	sp := ob.Span("fault-sim")
	err = cycles(ctx, vs, sim.Cycle)
	sp.End()
	if err != nil {
		return nil, csim.Stats{}, err
	}
	return sim.Result(), sim.Stats(), nil
}

// cycles steps a cycle-at-a-time simulator over the vector set, checking
// ctx before every cycle.
func cycles(ctx context.Context, vs *vectors.Set, cycle func(vec []logic.V)) error {
	for _, vec := range vs.Vecs {
		if err := ctx.Err(); err != nil {
			return err
		}
		cycle(vec)
	}
	return nil
}

// runCompiled is csim-C and csim-grid: fault IDs on the workers of one
// compiled run, inside a "fault-sim" span. csim-C runs the whole
// universe on its budget and records nothing. A whole csim-grid job
// (grid, no coordinates) runs it on the K the scheduler chose, already
// in opt.Workers, with one shard_start/shard_finish pair per worker, a
// merge event and a "fault_shards" gauge. A pinned shard runs its slice
// of the partition on its own budget, records one pair for the shard and
// publishes under "<prefix>shard<k>."; every shard computes its own
// packed trace, so merged shard stats count one trace per non-empty
// shard in GoodEvals. The "csim-grid shard %d" detail prefix is pinned
// by benchmark/ and goes with the `[benchmark]` yardstick refresh.
func runCompiled(ctx context.Context, p *compiled.Program, u *faults.Universe, vs *vectors.Set, opt Options, grid bool) (*faults.Result, csim.Stats, error) {
	ob := opt.Obs
	rec, log := ob.Recorder(), ob.Logger()
	ids, workers := u.IDs(), compiled.Workers(opt.Workers, u.NumFaults())
	var watch compiled.WorkerFunc
	switch {
	case opt.Of > 0:
		psp := ob.Span("partition")
		ids = parallel.Partition(u, opt.Of)[opt.Shard]
		psp.End()
		if len(ids) == 0 {
			// More shards than faults: this one holds nothing, and an
			// empty result merges as a no-op.
			return faults.NewResult(u), csim.Stats{}, nil
		}
		opt.ObsPrefix += fmt.Sprintf("shard%d.", opt.Shard)
		workers = compiled.Workers(opt.Workers, len(ids))
		rec.Recordf("shard_start", "shard %d of %d: %d faults on %d compiled workers", opt.Shard, opt.Of, len(ids), workers)
		log.Debug("shard start",
			slog.String("phase", "fault-sim"),
			slog.Int("shard", opt.Shard),
			slog.Int("of", opt.Of),
			slog.Int("faults", len(ids)),
			slog.Int("workers", workers))
	case grid:
		watch = func(i int, done bool, simulated, detected int) {
			if !done {
				rec.Recordf("shard_start", "csim-grid shard %d: compiled worker pulling chunks of %d faults", i, len(ids))
				log.Debug("shard start", slog.String("phase", "fault-sim"), slog.Int("shard", i))
				return
			}
			rec.Recordf("shard_finish", "csim-grid shard %d: %d faults, %d detected", i, simulated, detected)
			log.Debug("shard finish",
				slog.String("phase", "fault-sim"),
				slog.Int("shard", i),
				slog.Int("faults", simulated),
				slog.Int("detected", detected))
		}
	}

	sim, err := compiled.NewWith(p, u)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	sp := ob.Span("fault-sim")
	res, err := sim.RunFaults(ctx, vs, ids, workers, watch)
	sp.End()
	if err != nil {
		return nil, csim.Stats{}, err
	}

	switch {
	case opt.Of > 0:
		rec.Recordf("shard_finish", "shard %d of %d: %d detected", opt.Shard, opt.Of, res.NumDet)
		log.Debug("shard finish",
			slog.String("phase", "fault-sim"),
			slog.Int("shard", opt.Shard),
			slog.Int("detected", res.NumDet))
	case grid:
		rec.Recordf("merge", "csim-grid: %d shards merged, %d detected", workers, res.NumDet)
		log.Debug("merge",
			slog.String("phase", "merge"),
			slog.Int("fault_shards", workers),
			slog.Int("detected", res.NumDet))
		if reg := ob.Registry(); reg != nil {
			reg.Gauge(opt.ObsPrefix + "fault_shards").Set(int64(workers))
		}
	}
	csim.PublishStats(ob.Registry(), opt.ObsPrefix, sim.Stats())
	return res, sim.Stats(), nil
}

// unknownEngine is the error for a name the registry lacks; it lists the
// registered names.
func unknownEngine(name string) error {
	return fmt.Errorf("engine: unknown engine %q (engines: %s)", name,
		strings.Join(Names(func(Info) bool { return true }), " | "))
}
