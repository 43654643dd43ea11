// Package parallel is the fault-partition parallel concurrent fault
// simulator, csim-P. Concurrent fault simulation evolves every faulty
// machine independently against the one good machine, so the fault
// universe shards cleanly: the good machine is simulated once per vector
// set and its per-cycle settled state recorded (goodsim.Record); the
// collapsed fault universe is dealt into K disjoint partitions, balanced
// by fault-site level; one independent csim.Simulator per partition runs
// on its own goroutine, replaying good values from the shared read-only
// trace instead of re-deriving the good machine; and the per-partition
// results merge deterministically (min detecting-vector index wins), so
// the output is bit-identical to the single-threaded run regardless of
// worker count or goroutine scheduling.
package parallel

import (
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/goodsim"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// Options configures a csim-P run.
type Options struct {
	// Workers is the partition/goroutine count; <= 0 means
	// runtime.NumCPU(). It is clamped to the universe size.
	Workers int
	// Config is the per-partition simulator variant (typically csim.MV()).
	// Its Obs/ObsPrefix fields are overridden per worker; attach
	// observability through Options.Obs instead.
	Config csim.Config
	// Obs attaches the observability layer to the whole run: phase spans
	// (good-sim, partition, fault-sim with one lane per worker, merge),
	// per-worker metrics under "csim-P.worker<i>.", and the merged run
	// totals under "csim-P.". Nil disables observability.
	Obs *obs.Observer
}

// EffectiveWorkers reports the partition count Simulate will actually use
// for a universe of n faults, after defaulting and clamping.
func (o Options) EffectiveWorkers(n int) int { return o.workers(n) }

func (o Options) workers(n int) int {
	k := o.Workers
	if k <= 0 {
		k = runtime.NumCPU()
	}
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Partition shards the universe's fault IDs into k disjoint, jointly
// exhaustive groups. Faults are ordered by site level (ties broken by ID)
// and dealt round-robin, so every partition receives a similar mix of
// shallow and deep fault sites — simulation cost tracks fault activity,
// not fault count, and activity correlates with site depth.
// Pinned by benchmark/; goes with ROADMAP item 3's [benchmark] refresh.
//
//simlint:deterministic
func Partition(u *faults.Universe, k int) [][]int32 {
	order := make([]int32, len(u.Faults))
	for i := range order {
		order[i] = int32(i)
	}
	c := u.Circuit
	level := func(id int32) int32 { return c.Gate(u.Faults[id].Gate).Level }
	sort.SliceStable(order, func(i, j int) bool {
		li, lj := level(order[i]), level(order[j])
		if li != lj {
			return li < lj
		}
		return order[i] < order[j]
	})
	parts := make([][]int32, k)
	for i, id := range order {
		parts[i%k] = append(parts[i%k], id)
	}
	return parts
}

// Simulate runs csim-P over the whole vector set and returns the merged
// detections along with the merged per-partition stats.
func Simulate(u *faults.Universe, vs *vectors.Set, opt Options) (*faults.Result, csim.Stats, error) {
	ob := opt.Obs
	k := opt.workers(u.NumFaults())
	psp := ob.Span("partition")
	parts := Partition(u, k)
	psp.End()
	res, merged, err := runParts(u, vs, parts, opt.Config, ob,
		func(i int) string { return fmt.Sprintf("csim-P worker %d", i) }, WorkerPrefix)
	if err != nil {
		return nil, csim.Stats{}, err
	}
	ob.Recorder().Recordf("merge", "csim-P: %d workers merged, %d detected", k, res.NumDet)
	ob.Logger().Debug("merge",
		slog.String("phase", "merge"),
		slog.Int("workers", k),
		slog.Int("detected", res.NumDet))
	if reg := ob.Registry(); reg != nil {
		// Run totals next to the per-worker namespaces, via the same
		// generic Stats tag table the merge uses.
		csim.PublishStats(reg, MergedPrefix, merged)
		reg.Gauge(MergedPrefix + "workers").Set(int64(k))
	}
	return res, merged, nil
}

// runParts is the interpreted fault-partition runner — csim-P, and
// csim-grid and its pinned shards under MinVectorsCompiled vectors. The
// good machine is recorded once; one csim simulator per part replays
// that trace on its own goroutine; the per-part results and stats merge
// deterministically. label names part i in flight events ("csim-P
// worker 0"), prefix namespaces its metrics.
func runParts(u *faults.Universe, vs *vectors.Set, parts [][]int32, cfg csim.Config, ob *obs.Observer,
	label, prefix func(i int) string) (*faults.Result, csim.Stats, error) {

	trace := goodsim.RecordObserved(u.Circuit, vs.Vecs, ob)
	results := make([]*faults.Result, len(parts))
	stats := make([]csim.Stats, len(parts))
	errs := make([]error, len(parts))
	fsp := ob.Span("fault-sim")
	var wg sync.WaitGroup
	for i := range parts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each part publishes into its own metric namespace and
			// trace lane; lane 0 stays for the run-level phases.
			wsp := ob.SpanTID(fmt.Sprintf("worker%d", i), i+1)
			defer wsp.End()
			ob.Recorder().Recordf("shard_start", "%s: %d faults", label(i), len(parts[i]))
			ob.Logger().Debug("shard start",
				slog.String("phase", "fault-sim"),
				slog.Int("shard", i),
				slog.Int("faults", len(parts[i])))
			pcfg := cfg
			pcfg.Obs = ob
			pcfg.ObsPrefix = prefix(i)
			sim, err := csim.NewPartition(u, pcfg, parts[i])
			if err != nil {
				errs[i] = err
				return
			}
			if err := sim.SetGoodTrace(trace); err != nil {
				errs[i] = err
				return
			}
			results[i] = sim.Run(vs)
			stats[i] = sim.Stats()
			ob.Recorder().Recordf("shard_finish", "%s: %d detected", label(i), results[i].NumDet)
			ob.Logger().Debug("shard finish",
				slog.String("phase", "fault-sim"),
				slog.Int("shard", i),
				slog.Int("detected", results[i].NumDet))
		}(i)
	}
	wg.Wait()
	fsp.End()
	for _, err := range errs {
		if err != nil {
			return nil, csim.Stats{}, err
		}
	}
	msp := ob.Span("merge")
	res := faults.MergeResults(results...)
	merged := csim.MergeStats(stats...)
	msp.End()
	return res, merged, nil
}

// MergedPrefix namespaces the merged csim-P run totals in the registry.
const MergedPrefix = "csim-P."

// WorkerPrefix namespaces one partition worker's metrics (queue depth,
// cycles simulated, faults live, detections/drops, element gauges).
func WorkerPrefix(i int) string { return fmt.Sprintf("csim-P.worker%d.", i) }
