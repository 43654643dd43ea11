package engine

import (
	"context"
	"fmt"
	"log/slog"
	"strings"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/proofs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// Options is everything a caller may set on a run.
type Options struct {
	// Workers is the processor budget of a compiled run: it runs
	// compiled.Workers(Workers, faults) workers, one per chunk of 256
	// faults at most, and <= 0 means one. A pinned shard counts only its
	// own faults. Other engines ignore it.
	Workers int
	// Shard and Of pin the run to fault shard Shard of an Of-way split —
	// the faults whose ID ≡ Shard (mod Of), what a coordinator dispatches
	// to a worker node. Of == 0 simulates the whole universe, shard 0 of
	// 1. Only a compiled engine takes coordinates.
	Shard, Of int
	// Artifacts is the circuit's artifact set: the run reads the engine's
	// macro plan or compiled program from it, building one it lacks; nil
	// prepares a set for this run alone. A set over another circuit is an
	// error.
	Artifacts *Artifacts
	// Obs attaches the observability layer — flight events (decide,
	// shard_start/shard_finish, merge), fault events and the decide log
	// record; nil disables it. A run writes no metrics: its counters are
	// the Stats Run returns.
	Obs *obs.Observer
}

// Workers reports how many kernel workers Run uses for a job over a
// universe of nfaults faults, or over opt's shard of it: the count a
// result reports. It is 0 for an engine that runs on the calling
// goroutine alone.
func Workers(name string, nfaults int, opt Options) int {
	switch name {
	case CsimC, CsimGrid:
		return compiled.Workers(opt.Workers, shardSize(nfaults, opt))
	}
	return 0
}

// shardSize is how many of nfaults faults opt's shard holds.
func shardSize(nfaults int, opt Options) int {
	return faults.ShardSize(nfaults, opt.Shard, max(opt.Of, 1))
}

// Run simulates the vector set on the named engine and returns the
// detections and the engine's counters. Detections are bit-identical to
// the serial oracle on every engine. ctx stops the run with ctx.Err() at
// the next cycle (the csim family, PROOFS), fault (serial) or fault
// chunk × 64-cycle block (the compiled engines). The Stats are the one
// record of the run's work; Run publishes no metric.
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
	isCompiled := info.Kind == "compiled"
	if opt.Of != 0 || opt.Shard != 0 {
		if !isCompiled {
			return nil, csim.Stats{}, fmt.Errorf("engine: %s takes no shard coordinates", name)
		}
		if opt.Shard < 0 || opt.Shard >= opt.Of {
			return nil, csim.Stats{}, fmt.Errorf("engine: shard index %d outside [0, %d)", opt.Shard, opt.Of)
		}
	}
	// A compiled run's worker count is recorded before the cancellation
	// check: a job that times out before its engine starts still carries
	// the decision in its postmortem.
	ob := opt.Obs
	if isCompiled {
		procs, nf := max(opt.Workers, 1), shardSize(u.NumFaults(), opt)
		k := compiled.Workers(procs, nf)
		ob.Recorder().Recordf("decide", "plan %dx1 (procs=%d faults=%d: one compiled worker per chunk of 256 faults at most)", k, procs, nf)
		ob.Logger().Info("decide",
			slog.String("phase", "decide"),
			slog.Int("procs", procs),
			slog.Int("fault_shards", k))
	}
	if err := ctx.Err(); err != nil {
		return nil, csim.Stats{}, err
	}
	plan, pool, err := a.inputs(info)
	if err != nil {
		return nil, csim.Stats{}, err
	}

	switch name {
	case CsimC, CsimGrid:
		return runCompiled(ctx, name, pool, u, vs, opt)
	case Serial:
		res, err := serial.Simulate(ctx, u, vs)
		return res, csim.Stats{}, err
	case PROOFS:
		sim, err := proofs.New(u)
		if err != nil {
			return nil, csim.Stats{}, err
		}
		if err := cycles(ctx, vs, sim.Cycle); err != nil {
			return nil, csim.Stats{}, err
		}
		return sim.Result(), csim.Stats{MemBytes: sim.Stats().MemBytes}, nil
	}
	// The csim family.
	cfg := info.Config
	cfg.Plan, cfg.Obs = plan, ob
	sim, err := csim.New(u, cfg)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	if err := cycles(ctx, vs, sim.Cycle); err != nil {
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

// runCompiled is the compiled engines' one path: opt's shard of the
// universe — all of it when opt.Of is 0 — on compiled.Workers(opt.Workers,
// its faults) workers of one compiled run, borrowed from the circuit's
// pool and returned to it once the run has read their counts. It records
// one shard_start/shard_finish pair per worker and a merge event, each
// detail starting with the engine's name. Every pinned shard computes its
// own packed trace, so merged shard stats count one trace per non-empty
// shard in GoodEvals. The "csim-grid shard %d" detail prefix is pinned by
// benchmark/ and goes with the `[benchmark]` yardstick refresh.
func runCompiled(ctx context.Context, name string, pool *compiled.Pool, u *faults.Universe, vs *vectors.Set, opt Options) (*faults.Result, csim.Stats, error) {
	nf := shardSize(u.NumFaults(), opt)
	if opt.Of > 0 && nf == 0 {
		// More shards than faults: this one holds nothing, and an empty
		// result merges as a no-op.
		return faults.NewResult(u), csim.Stats{}, nil
	}
	rec := opt.Obs.Recorder()
	workers := compiled.Workers(opt.Workers, nf)
	chunk := min(compiled.ChunkFaults, nf)
	watch := func(i int, done bool, simulated, detected int) {
		if !done {
			rec.Recordf("shard_start", "%s shard %d: compiled worker pulling chunks of %d faults", name, i, chunk)
			return
		}
		rec.Recordf("shard_finish", "%s shard %d: %d faults, %d detected", name, i, simulated, detected)
	}

	sim, err := compiled.NewPooled(pool, u)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	res, err := sim.RunFaults(ctx, vs, opt.Shard, max(opt.Of, 1), workers, watch)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	rec.Recordf("merge", "%s: %d shards merged, %d detected", name, workers, res.NumDet)
	return res, sim.Stats(), nil
}

// unknownEngine is the error for a name the registry lacks; it lists the
// registered names.
func unknownEngine(name string) error {
	return fmt.Errorf("engine: unknown engine %q (engines: %s)", name,
		strings.Join(Names(func(Info) bool { return true }), " | "))
}
