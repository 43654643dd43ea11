package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/proofs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// BuildVectors materializes the job's vector spec against the compiled
// circuit. Inline vector parse errors are user errors (400 at admission,
// where this is first called). The distributed coordinator calls it too,
// to pick the kernel before planning the fault split.
func BuildVectors(spec *JobSpec, cc *Compiled) (*vectors.Set, error) {
	numPIs := len(cc.Circuit.PIs)
	if spec.Vectors != "" {
		vs, err := vectors.ParseString(spec.Vectors, numPIs)
		if err != nil {
			return nil, err
		}
		if vs.Len() == 0 {
			return nil, fmt.Errorf("vectors: empty vector set")
		}
		return vs, nil
	}
	return vectors.Random(cc.Circuit, spec.Random, spec.Seed), nil
}

// execute runs one admitted job's engine under ctx and returns the
// result view. Cancellation granularity: the csim variants check the
// context between clock cycles; csim-C, and csim-grid wherever it runs
// the compiled kernel (64 vectors or more), between fault chunks and
// between a chunk's 64-cycle blocks; csim-P, csim-grid under 64 vectors,
// PROOFS and serial check it only before starting (a cancelled running
// job of those engines finishes its simulation, then reports cancelled).
func execute(ctx context.Context, spec *JobSpec, cc *Compiled, ob *obs.Observer, prefix string, workersDefault int) (*ResultView, error) {
	u, err := cc.Universe(spec.Model)
	if err != nil {
		return nil, err
	}
	vs, err := BuildVectors(spec, cc)
	if err != nil {
		return nil, err
	}
	// For the scheduler-planned grid, decide (and record) the shard
	// count before the cancellation check below: a job that times out
	// before its engine starts still carries the decision in its
	// postmortem.
	gridShards := spec.Workers
	if spec.Engine == "csim-grid" && spec.FaultShards == 0 && spec.Workers <= 0 {
		gridShards = parallel.DecideObserved(parallel.JobShape{
			Gates:    len(cc.Circuit.Gates),
			Faults:   u.NumFaults(),
			Vectors:  vs.Len(),
			MaxProcs: workersDefault,
		}, ob).FaultShards
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rv := &ResultView{
		Engine:   spec.Engine,
		Circuit:  cc.Circuit.Name,
		Model:    spec.Model,
		Patterns: vs.Len(),
		Faults:   u.NumFaults(),
	}
	start := time.Now()
	var res *faults.Result
	switch spec.Engine {
	case "serial":
		res = serial.Simulate(u, vs)
	case "PROOFS":
		sim, err := proofs.New(u)
		if err != nil {
			return nil, err
		}
		res = sim.Run(vs)
		rv.Stats.MemBytes = sim.Stats().MemBytes
	case "csim-C":
		sim, err := compiled.NewWith(cc.Program(), u)
		if err != nil {
			return nil, err
		}
		workers := spec.Workers
		if workers <= 0 {
			workers = workersDefault
		}
		rv.Workers = compiled.Workers(workers, u.NumFaults())
		res, err = sim.RunContext(ctx, vs, workers)
		if err != nil {
			return nil, err
		}
		fillStats(rv, sim.Stats())
	case "csim-P":
		workers := spec.Workers
		if workers <= 0 {
			workers = workersDefault
		}
		cfg := csim.MV()
		cfg.Plan, err = cc.Plan(cfg)
		if err != nil {
			return nil, err
		}
		opt := parallel.Options{Workers: workers, Config: cfg, Obs: ob}
		rv.Workers = opt.EffectiveWorkers(u.NumFaults())
		var st csim.Stats
		res, st, err = parallel.Simulate(u, vs, opt)
		if err != nil {
			return nil, err
		}
		fillStats(rv, st)
	case "csim-grid":
		opt := parallel.GridOptions{FaultShards: gridShards, Config: csim.MV(), Obs: ob}
		// Only the kernel that runs gets its cached artifact: the macro
		// plan costs a 34 ms extraction on a circuit's first job.
		if parallel.RunsCompiled(vs.Len()) {
			opt.Program = cc.Program()
		} else if opt.Config.Plan, err = cc.Plan(opt.Config); err != nil {
			return nil, err
		}
		rv.Windows = 1 // pinned by benchmark/ (it reads the plan as workers x windows)
		var st csim.Stats
		if spec.FaultShards > 0 {
			// One fault-partition slice of a distributed grid: exactly
			// what a coordinator dispatches to this worker.
			rv.Workers = spec.FaultShards
			res, st, err = parallel.SimulateShard(ctx, u, vs, parallel.ShardOptions{
				Shard: spec.FaultShard, Of: spec.FaultShards, Workers: workersDefault,
				Config: opt.Config, Program: opt.Program, Obs: ob,
			})
		} else {
			rv.Workers = opt.EffectiveShards(u.NumFaults(), vs.Len())
			res, st, err = parallel.SimulateGrid(ctx, u, vs, opt)
		}
		if err != nil {
			return nil, err
		}
		fillStats(rv, st)
	default:
		cfg := engineConfig(spec.Engine)
		cfg.Plan, err = cc.Plan(cfg)
		if err != nil {
			return nil, err
		}
		cfg.Obs = ob
		cfg.ObsPrefix = prefix
		sim, err := csim.New(u, cfg)
		if err != nil {
			return nil, err
		}
		// Run cycle by cycle so cancellation and the per-job timeout take
		// effect mid-simulation instead of after the whole vector set.
		for _, vec := range vs.Vecs {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			sim.Cycle(vec)
		}
		res = sim.Result()
		fillStats(rv, sim.Stats())
	}
	rv.RunNS = time.Since(start).Nanoseconds()
	rv.Detected = res.NumDet
	rv.PotOnly = res.NumPotOnly()
	rv.Coverage = res.Coverage()
	if spec.ReturnDetections {
		rv.Detections = NewDetectionsView(res)
	}
	// A cancellation that raced the final cycles still wins: the client
	// asked for the job to stop, so it reports cancelled, not done.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rv, nil
}

// engineConfig maps an engine name to its csim configuration.
func engineConfig(engine string) csim.Config {
	switch engine {
	case "csim-V":
		return csim.V()
	case "csim-M":
		return csim.M()
	case "csim-MV":
		return csim.MV()
	default:
		return csim.Config{}
	}
}

// fillStats copies the engine counters into the view.
func fillStats(rv *ResultView, st csim.Stats) {
	rv.Stats = NewStatsView(st)
}
