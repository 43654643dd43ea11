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

// GridOptions configures a csim-grid run: the fault universe split K
// ways. From MinVectorsCompiled vectors on the K shards are the workers
// of one compiled bit-parallel run (internal/compiled, the csim-C
// kernel): they pull fault chunks off one counter and share one packed
// good trace, so there is no partition and no merge beyond the kernel's
// own. Below that they are interpreted simulators over csim-P's
// partitions and one shared good trace (runParts).
type GridOptions struct {
	// FaultShards is the fault-partition count K; <= 0 means 1. Clamped
	// to the universe size, and on the compiled path to the kernel's
	// chunk count (compiled.Workers).
	FaultShards int
	// Config is the interpreted path's per-simulator variant (typically
	// csim.MV()).
	Config csim.Config
	// Program is the circuit's cached compiled form for the compiled
	// path, passed in the way Config.Plan passes the macro plan; nil
	// compiles it on demand.
	Program *compiled.Program
	// Obs attaches the observability layer: merged totals under
	// "csim-grid." and, on the interpreted path, per-shard metrics under
	// "csim-grid.shard<k>.". Nil disables observability.
	Obs *obs.Observer
}

// GridPrefix namespaces the merged csim-grid run totals in the registry.
const GridPrefix = "csim-grid."

// GridShardPrefix namespaces one fault shard's metrics.
func GridShardPrefix(k int) string { return fmt.Sprintf("csim-grid.shard%d.", k) }

// gridShardLabel names an in-process interpreted shard in flight events,
// as gridCompiled names its workers. The "csim-grid shard %d" prefix is
// pinned by benchmark/ (it parses shard_start/shard_finish details) and
// goes with ROADMAP item 3's [benchmark] refresh.
func gridShardLabel(k int) string { return fmt.Sprintf("csim-grid shard %d", k) }

// RunsCompiled reports whether a grid or shard over nv vectors takes the
// compiled path. It is the one place that decision is made:
// SimulateGrid, SimulateShard and the scheduler's plans all follow it,
// and callers use it to pass in only the cached artifact (Program or
// Config.Plan) of the kernel that runs.
func RunsCompiled(nv int) bool { return nv >= MinVectorsCompiled }

// EffectiveShards reports the shard count SimulateGrid will actually use
// for nf faults over nv vectors, after defaulting and clamping.
func (o GridOptions) EffectiveShards(nf, nv int) int {
	if RunsCompiled(nv) {
		return compiled.Workers(o.FaultShards, nf)
	}
	return max(1, min(o.FaultShards, nf))
}

// SimulateGrid runs the grid over the whole vector set and returns the
// merged detections and summed stats, bit-identical to the serial oracle
// at every shard count. ctx stops a compiled run at the next chunk×block
// boundary with ctx.Err(); the interpreted path runs to completion.
func SimulateGrid(ctx context.Context, u *faults.Universe, vs *vectors.Set, opt GridOptions) (*faults.Result, csim.Stats, error) {
	ob := opt.Obs
	k := opt.EffectiveShards(u.NumFaults(), vs.Len())
	if RunsCompiled(vs.Len()) {
		return gridCompiled(ctx, u, vs, opt, k)
	}
	psp := ob.Span("partition")
	parts := Partition(u, k)
	psp.End()
	res, merged, err := runParts(u, vs, parts, opt.Config, ob, gridShardLabel, GridShardPrefix)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	publishGrid(ob, res, merged, k)
	return res, merged, nil
}

// gridCompiled is the K×1 grid on the compiled kernel: one run over the
// whole universe in fault-ID order on k chunk-pulling workers, each
// recording the shard_start/shard_finish pair an interpreted shard would.
func gridCompiled(ctx context.Context, u *faults.Universe, vs *vectors.Set, opt GridOptions, k int) (*faults.Result, csim.Stats, error) {
	ob := opt.Obs
	rec, log := ob.Recorder(), ob.Logger()
	res, st, err := runCompiled(ctx, u, vs, opt.Program, u.IDs(), k, ob, func(i int, done bool, simulated, detected int) {
		if !done {
			rec.Recordf("shard_start", "csim-grid shard %d: compiled worker pulling chunks of %d faults", i, u.NumFaults())
			log.Debug("shard start", slog.String("phase", "fault-sim"), slog.Int("shard", i))
			return
		}
		rec.Recordf("shard_finish", "csim-grid shard %d: %d faults, %d detected", i, simulated, detected)
		log.Debug("shard finish",
			slog.String("phase", "fault-sim"),
			slog.Int("shard", i),
			slog.Int("faults", simulated),
			slog.Int("detected", detected))
	})
	if err != nil {
		return nil, csim.Stats{}, err
	}
	publishGrid(ob, res, st, k)
	return res, st, nil
}

// publishGrid records a finished grid run: the merge flight event and
// log record, and the merged totals and shard count under GridPrefix.
func publishGrid(ob *obs.Observer, res *faults.Result, merged csim.Stats, k int) {
	ob.Recorder().Recordf("merge", "csim-grid: %d shards merged, %d detected", k, res.NumDet)
	ob.Logger().Debug("merge",
		slog.String("phase", "merge"),
		slog.Int("fault_shards", k),
		slog.Int("detected", res.NumDet))
	if reg := ob.Registry(); reg != nil {
		csim.PublishStats(reg, GridPrefix, merged)
		reg.Gauge(GridPrefix + "fault_shards").Set(int64(k))
	}
}

// runCompiled simulates the faults ids on workers workers of one
// compiled run inside a "fault-sim" span. p is the cached program, or
// nil to compile the circuit here.
func runCompiled(ctx context.Context, u *faults.Universe, vs *vectors.Set, p *compiled.Program,
	ids []int32, workers int, ob *obs.Observer, watch compiled.WorkerFunc) (*faults.Result, csim.Stats, error) {

	if p == nil {
		p = compiled.Compile(u.Circuit)
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
	return res, sim.Stats(), nil
}
