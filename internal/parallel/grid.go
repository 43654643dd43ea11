package parallel

import (
	"context"
	"fmt"
	"log/slog"
	"sync"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/goodsim"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// GridOptions configures a csim-grid run. From MinVectorsCompiled
// vectors on, unless vector windows are pinned (Windows > 1), the K
// fault shards are the workers of one compiled bit-parallel run
// (internal/compiled, the csim-C kernel): they pull fault chunks off one
// counter and share one packed good trace, so there is no partition, no
// repair and no merge beyond the kernel's own. Otherwise fault-axis
// sharding (csim-P's partitioner) is crossed with vector-axis sharding
// (csim-V2's windowed engine): each of the K fault shards runs the
// W-window speculation + repair pipeline of interpreted simulators
// against the one shared good trace, and the per-shard results merge
// with faults.MergeResults exactly as csim-P's do.
type GridOptions struct {
	// FaultShards is the fault-partition count K; <= 0 means 1. Clamped
	// to the universe size, and on the compiled path to the kernel's
	// chunk count (compiled.Workers).
	FaultShards int
	// Windows is the vector-window count W per shard; <= 0 means 1.
	// Clamped to the vector count. Above 1 it pins the interpreted
	// window pipeline.
	Windows int
	// Config is the interpreted path's per-simulator variant (typically
	// csim.MV()).
	Config csim.Config
	// Program is the circuit's cached compiled form for the compiled
	// path, passed in the way Config.Plan passes the macro plan; nil
	// compiles it on demand.
	Program *compiled.Program
	// Obs attaches the observability layer: merged totals under
	// "csim-grid." and, on the interpreted path, per-shard-window metrics
	// under "csim-grid.shard<k>.window<i>.". Nil disables observability.
	Obs *obs.Observer
}

// GridPrefix namespaces the merged csim-grid run totals in the registry.
const GridPrefix = "csim-grid."

// GridShardPrefix namespaces one fault shard's metrics.
func GridShardPrefix(k int) string { return fmt.Sprintf("csim-grid.shard%d.", k) }

// RunsCompiled reports whether a grid or shard with that Windows option
// takes the compiled path over nv vectors. It is the one place that
// decision is made: SimulateGrid, SimulateShard and the scheduler's
// plans all follow it, and callers use it to pass in only the cached
// artifact (Program or Config.Plan) of the kernel that runs.
func RunsCompiled(windows, nv int) bool {
	return windows <= 1 && nv >= MinVectorsCompiled
}

// EffectiveShape reports the (K, W) shape SimulateGrid will actually use
// for nf faults over nv vectors, after defaulting and clamping.
func (o GridOptions) EffectiveShape(nf, nv int) (k, w int) {
	if RunsCompiled(o.Windows, nv) {
		return compiled.Workers(o.FaultShards, nf), 1
	}
	return max(1, min(o.FaultShards, nf)), max(1, min(o.Windows, nv))
}

// SimulateGrid runs the grid over the whole vector set and returns the
// merged detections and summed stats, bit-identical to the serial oracle
// at every shape. On the interpreted path K=1 degenerates to csim-V2
// over the full universe and W=1 to csim-P (every window run is then
// exact and no repairs happen). ctx stops a compiled run at the next
// chunk×block boundary with ctx.Err(); the interpreted path runs to
// completion.
func SimulateGrid(ctx context.Context, u *faults.Universe, vs *vectors.Set, opt GridOptions) (*faults.Result, csim.Stats, error) {
	ob := opt.Obs
	k, w := opt.EffectiveShape(u.NumFaults(), vs.Len())
	if RunsCompiled(opt.Windows, vs.Len()) {
		return gridCompiled(ctx, u, vs, opt, k)
	}
	trace := goodsim.RecordObserved(u.Circuit, vs.Vecs, ob)
	psp := ob.Span("partition")
	parts := Partition(u, k)
	psp.End()

	results := make([]*faults.Result, k)
	stats := make([]csim.Stats, k)
	repairs := make([]int, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ob.Recorder().Recordf("shard_start", "csim-grid shard %d: %d faults over %d windows", i, len(parts[i]), w)
			ob.Logger().Debug("shard start",
				slog.String("phase", "fault-sim"),
				slog.Int("shard", i),
				slog.Int("faults", len(parts[i])),
				slog.Int("windows", w))
			results[i], stats[i], repairs[i], errs[i] = simulateWindows(
				u, vs, trace, parts[i], w, opt.Config, ob, GridShardPrefix(i), i*w)
			if errs[i] == nil {
				ob.Recorder().Recordf("shard_finish", "csim-grid shard %d: %d detected, %d repaired", i, results[i].NumDet, repairs[i])
				ob.Logger().Debug("shard finish",
					slog.String("phase", "fault-sim"),
					slog.Int("shard", i),
					slog.Int("detected", results[i].NumDet),
					slog.Int("repaired", repairs[i]))
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, csim.Stats{}, err
		}
	}
	msp := ob.Span("merge")
	res := faults.MergeResults(results...)
	merged := csim.MergeStats(stats...)
	msp.End()
	totalRepaired := 0
	for _, r := range repairs {
		totalRepaired += r
	}
	publishGrid(ob, res, merged, k, w, totalRepaired)
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
	publishGrid(ob, res, st, k, 1, 0)
	return res, st, nil
}

// publishGrid records a finished grid run: the merge flight event and
// log record, and the merged totals and shape under GridPrefix.
func publishGrid(ob *obs.Observer, res *faults.Result, merged csim.Stats, k, w, repaired int) {
	ob.Recorder().Recordf("merge", "csim-grid: %dx%d grid merged, %d detected, %d repaired", k, w, res.NumDet, repaired)
	ob.Logger().Debug("merge",
		slog.String("phase", "merge"),
		slog.Int("fault_shards", k),
		slog.Int("windows", w),
		slog.Int("detected", res.NumDet),
		slog.Int("repaired", repaired))
	if reg := ob.Registry(); reg != nil {
		csim.PublishStats(reg, GridPrefix, merged)
		reg.Gauge(GridPrefix + "fault_shards").Set(int64(k))
		reg.Gauge(GridPrefix + "windows").Set(int64(w))
		reg.Gauge(GridPrefix + "repaired_faults").Set(int64(repaired))
	}
}

// runCompiled simulates the faults ids on workers workers of one
// compiled run inside a "fault-sim" span. p is the cached program, or
// nil to compile the circuit here.
func runCompiled(ctx context.Context, u *faults.Universe, vs *vectors.Set, p *compiled.Program,
	ids []int32, workers int, ob *obs.Observer, watch compiled.WorkerFunc) (*faults.Result, csim.Stats, error) {

	if p == nil {
		p = compiled.Compile(u.Circuit, nil)
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
