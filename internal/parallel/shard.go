package parallel

import (
	"context"
	"fmt"
	"log/slog"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// ShardOptions configures one slice of the distributed grid: fault
// partition Shard of Of over the full vector set. A worker csimd node
// executes exactly this when a coordinator fans a job out — the
// partitioner is the deterministic csim-P dealer, so every node that
// computes Partition(u, Of) agrees on which faults shard k holds, and
// MergeResults over all Of shard results is bit-identical to a local
// SimulateGrid (and hence to the serial oracle). The kernel is chosen as
// in a local grid (RunsCompiled): the compiled one runs the shard's
// fault IDs on Workers workers over a packed trace this node computes
// for itself, the interpreted one runs them on one simulator (runParts).
type ShardOptions struct {
	// Shard is the fault-partition index in [0, Of).
	Shard int
	// Of is the total fault-partition count K.
	Of int
	// Workers bounds the compiled path's in-process workers over the
	// shard's faults (compiled.Workers applies: one per chunk of 256
	// faults at most); <= 0 means 1.
	Workers int
	// Config is the interpreted path's per-simulator variant (typically
	// csim.MV()).
	Config csim.Config
	// Program is the circuit's cached compiled form for the compiled
	// path; nil compiles it on demand.
	Program *compiled.Program
	// Obs attaches the observability layer: the shard publishes under
	// "csim-grid.shard<k>." — its totals on the compiled path, its
	// simulator's metrics on the interpreted one. Nil disables
	// observability.
	Obs *obs.Observer
}

// SimulateShard runs fault shard opt.Shard of opt.Of over the whole
// vector set and returns the shard's detections (a Result over the full
// universe in which only the shard's faults can be detected) and the
// shard's stats. It is the worker-side half of the distributed tier:
// the coordinator merges Of such results with faults.MergeResults,
// first detection winning, so the distributed run reproduces the
// single-node grid bit for bit. Merged stats sum over the shards, so
// GoodEvals counts one good trace per non-empty shard: every node
// computes its own. ctx stops a compiled shard at the next chunk×block
// boundary with ctx.Err(); an interpreted one runs to completion.
func SimulateShard(ctx context.Context, u *faults.Universe, vs *vectors.Set, opt ShardOptions) (*faults.Result, csim.Stats, error) {
	if opt.Of < 1 {
		return nil, csim.Stats{}, fmt.Errorf("parallel: shard count %d < 1", opt.Of)
	}
	if opt.Shard < 0 || opt.Shard >= opt.Of {
		return nil, csim.Stats{}, fmt.Errorf("parallel: shard index %d outside [0, %d)", opt.Shard, opt.Of)
	}
	ob := opt.Obs
	psp := ob.Span("partition")
	part := Partition(u, opt.Of)[opt.Shard]
	psp.End()
	if len(part) == 0 {
		// More shards than faults: this shard holds nothing. An empty
		// result merges as a no-op.
		return faults.NewResult(u), csim.Stats{}, nil
	}
	if RunsCompiled(vs.Len()) {
		return shardCompiled(ctx, u, vs, opt, part)
	}
	return runParts(u, vs, [][]int32{part}, opt.Config, ob,
		func(int) string { return fmt.Sprintf("shard %d of %d", opt.Shard, opt.Of) },
		func(int) string { return GridShardPrefix(opt.Shard) })
}

// shardCompiled runs the shard's faults, in partition order, on the
// compiled kernel.
func shardCompiled(ctx context.Context, u *faults.Universe, vs *vectors.Set, opt ShardOptions, part []int32) (*faults.Result, csim.Stats, error) {
	ob := opt.Obs
	nw := compiled.Workers(opt.Workers, len(part))
	ob.Recorder().Recordf("shard_start", "shard %d of %d: %d faults on %d compiled workers",
		opt.Shard, opt.Of, len(part), nw)
	ob.Logger().Debug("shard start",
		slog.String("phase", "fault-sim"),
		slog.Int("shard", opt.Shard),
		slog.Int("of", opt.Of),
		slog.Int("faults", len(part)),
		slog.Int("workers", nw))
	res, st, err := runCompiled(ctx, u, vs, opt.Program, part, nw, ob, nil)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	ob.Recorder().Recordf("shard_finish", "shard %d of %d: %d detected", opt.Shard, opt.Of, res.NumDet)
	ob.Logger().Debug("shard finish",
		slog.String("phase", "fault-sim"),
		slog.Int("shard", opt.Shard),
		slog.Int("detected", res.NumDet))
	csim.PublishStats(ob.Registry(), GridShardPrefix(opt.Shard), st)
	return res, st, nil
}
