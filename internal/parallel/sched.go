package parallel

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// The scheduler: given a job's shape, pick the plan an unpinned
// csim-grid job runs. The plan is a K-way fault split on one of two
// kernels:
//
//   - From MinVectorsCompiled vectors on, the K shards are workers of
//     one compiled bit-parallel run. Its workers pull chunks of faults
//     off one counter, so the fault axis offers one worker per chunk
//     (compiled.Workers).
//   - Below that, the K shards are interpreted csim-MV simulators over a
//     shared good trace. A shard below MinFaultsPerShard faults drowns
//     in per-shard fixed cost (trace replay, full first-cycle sweep), so
//     the fault axis offers at most Faults/MinFaultsPerShard shards.
//
// Either way K is bounded by the processor budget. The vector axis is
// not split: the compiled kernel already packs 64 cycles into the word.
//
// The decision is a pure function of the JobShape, so the same job
// always gets the same plan.

// MinFaultsPerShard is the interpreted kernel's shard-granularity floor:
// below it another shard costs more in fixed overhead than it saves.
const MinFaultsPerShard = 64

// MinVectorsCompiled is the vector count from which a grid runs the
// compiled kernel (internal/compiled): below one full 64-lane word the
// packed passes run partly empty and the one-time compile plus
// packed-trace cost is not amortized.
const MinVectorsCompiled = 64

// JobShape describes one simulation job for the scheduler.
type JobShape struct {
	// Gates is the circuit size (informational; the granularity floors
	// are expressed in faults and vectors, which already scale with it).
	Gates int
	// Faults is the fault-universe size.
	Faults int
	// Vectors is the vector-sequence length.
	Vectors int
	// MaxProcs bounds the shard count; <= 0 means runtime.NumCPU(). Pin
	// it for deterministic planning across hosts.
	MaxProcs int
}

// Plan is the scheduler's decision: a K-way fault split and its kernel.
type Plan struct {
	// FaultShards is K, the fault-partition count.
	FaultShards int
	// Compiled says which kernel runs the plan: the vector sequence is
	// long enough (MinVectorsCompiled) that the shards are workers of one
	// compiled bit-parallel run (the csim-C kernel) instead of
	// interpreted csim-MV simulators.
	Compiled bool
}

// String renders the plan as "Kx1" — the shape a job result reports as
// workers x windows — with a "+C" suffix when the compiled kernel runs
// it.
func (p Plan) String() string {
	if p.Compiled {
		return fmt.Sprintf("%dx1+C", p.FaultShards)
	}
	return fmt.Sprintf("%dx1", p.FaultShards)
}

// Decide picks the grid shape for a job. It is deterministic: equal
// shapes yield equal plans (with MaxProcs <= 0 the processor count of
// the deciding host is part of the shape).
func Decide(sh JobShape) Plan {
	plan, _ := Explain(sh)
	return plan
}

// Explain is Decide plus the verdict's reasoning: the same plan and a
// one-line account of the fault axis' capacity and the kernel chosen —
// what the flight recorder stores so a postmortem shows not just the
// split but why it was chosen.
func Explain(sh JobShape) (Plan, string) {
	p := sh.MaxProcs
	if p <= 0 {
		p = runtime.NumCPU()
	}
	compiledOK := RunsCompiled(sh.Vectors)
	k, why := min(p, sh.Faults/MinFaultsPerShard), "too few vectors for the compiled kernel, one interpreted simulator per 64 faults at most"
	if compiledOK {
		k, why = compiled.Workers(p, sh.Faults), "one compiled worker per chunk of 256 faults at most"
	}
	plan := Plan{FaultShards: max(1, k), Compiled: compiledOK}
	return plan, fmt.Sprintf("procs=%d faults=%d compiled_ok=%t: %s", p, sh.Faults, compiledOK, why)
}

// DecideObserved is Explain with the verdict published: the
// "sched.fault_shards" / "sched.max_procs" gauges, a
// "decide" flight event carrying the plan and its reasoning, and one
// info log record.
func DecideObserved(sh JobShape, ob *obs.Observer) Plan {
	plan, why := Explain(sh)
	if reg := ob.Registry(); reg != nil {
		reg.Gauge("sched.fault_shards").Set(int64(plan.FaultShards))
		mp := sh.MaxProcs
		if mp <= 0 {
			mp = runtime.NumCPU()
		}
		reg.Gauge("sched.max_procs").Set(int64(mp))
	}
	ob.Recorder().Recordf("decide", "plan %s (%s)", plan, why)
	ob.Logger().Info("sched decide",
		slog.String("phase", "decide"),
		slog.Int("fault_shards", plan.FaultShards),
		slog.String("why", why))
	return plan
}

// AutoOptions configures a scheduler-planned run.
type AutoOptions struct {
	// MaxProcs bounds the total shard count; <= 0 means
	// runtime.NumCPU().
	MaxProcs int
	// Config is the per-simulator variant of an interpreted plan
	// (typically csim.MV()).
	Config csim.Config
	// Program is the circuit's cached compiled form for a compiled plan;
	// nil compiles it on demand.
	Program *compiled.Program
	// Obs attaches the observability layer; the chosen plan is published
	// by DecideObserved next to the csim-grid metrics.
	Obs *obs.Observer
}

// SimulateAuto lets the scheduler pick the shard count for the job and
// runs it, returning the merged result, summed stats and the plan used.
func SimulateAuto(ctx context.Context, u *faults.Universe, vs *vectors.Set, opt AutoOptions) (*faults.Result, csim.Stats, Plan, error) {
	plan := DecideObserved(JobShape{
		Gates:    len(u.Circuit.Gates),
		Faults:   u.NumFaults(),
		Vectors:  vs.Len(),
		MaxProcs: opt.MaxProcs,
	}, opt.Obs)
	res, st, err := SimulateGrid(ctx, u, vs, GridOptions{
		FaultShards: plan.FaultShards,
		Config:      opt.Config,
		Program:     opt.Program,
		Obs:         opt.Obs,
	})
	return res, st, plan, err
}
