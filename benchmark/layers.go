package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	faultsim "repro"
	"repro/internal/faults"
	"repro/internal/netcheck"
	"repro/internal/parallel"
	"repro/internal/service"
)

// Per-layer metrics are measured from outside the program, three ways:
// timestamps and counters the HTTP API already returns (JobView times,
// ResultView.run_ns and stats, /debug flight events), counting
// RoundTrippers in the clients, and a layer pass that times direct calls
// on the workload's own inputs through the root faultsim facade plus
// parallel.Partition, faults.MergeResults, service.NewDetectionsView,
// (*DetectionsView).Result and netcheck.Check.

// shardObs is one coordinator→worker shard as seen from both ends.
type shardObs struct {
	id string
	// first and last bracket the coordinator's requests for the shard.
	first, last time.Time
	reqs        int
	up, down    int64
	// runNS and finished come from the worker's own job record.
	runNS    int64
	finished time.Time
}

// observe collects, after a traced job reached its terminal state, what
// the API says about its inside: flight events for jobs that run shards,
// and for a fleet job the coordinator's shard requests and the workers'
// shard records.
func (e *env) observe(ctx context.Context, w *workload, c *service.Client, s *sample) {
	if !w.sharded() || s.err != nil {
		return
	}
	if pm, err := c.Debug(ctx, s.id); err == nil {
		s.events = pm.Events
	}
	if !w.fleet {
		return
	}
	byID := map[string]*shardObs{}
	for _, r := range e.distRT.take() {
		if !strings.HasPrefix(r.jobID, s.id+".s") {
			continue // health probes, or another job's shards
		}
		so := byID[r.jobID]
		if so == nil {
			so = &shardObs{id: r.jobID, first: r.start}
			byID[r.jobID] = so
		}
		so.reqs++
		so.up += r.up
		so.down += r.down
		so.last = r.end
	}
	for _, so := range byID {
		for _, url := range e.workerURLs {
			if v, err := service.NewClient(url).Job(ctx, so.id); err == nil && v.Result != nil {
				so.runNS, so.finished = v.Result.RunNS, stamp(v.Finished)
				break
			}
		}
		s.shards = append(s.shards, *so)
	}
}

// eventTime returns the time of the first event of a kind whose detail
// contains sub.
func eventTime(events []faultsim.FlightEvent, kind, sub string) (time.Time, bool) {
	for _, ev := range events {
		if ev.Kind == kind && strings.Contains(ev.Detail, sub) {
			return ev.Time, true
		}
	}
	return time.Time{}, false
}

// eventSpan returns the interval between the first event of kind a whose
// detail contains subA and the first of kind b containing subB.
func eventSpan(events []faultsim.FlightEvent, a, subA, b, subB string) (t0, t1 time.Time, ok bool) {
	if t0, ok = eventTime(events, a, subA); ok {
		t1, ok = eventTime(events, b, subB)
	}
	return t0, t1, ok
}

// shardInterval is one in-process shard's run, from a job's shard_start
// and shard_finish flight events.
type shardInterval struct {
	k          int
	start, end time.Time
}

func inProcessShards(events []faultsim.FlightEvent) []shardInterval {
	starts := map[int]time.Time{}
	var out []shardInterval
	for _, ev := range events {
		var k int
		if _, err := fmt.Sscanf(ev.Detail, "csim-grid shard %d", &k); err != nil {
			continue
		}
		switch ev.Kind {
		case "shard_start":
			starts[k] = ev.Time
		case "shard_finish":
			out = append(out, shardInterval{k: k, start: starts[k], end: ev.Time})
		}
	}
	return out
}

// collector gathers one value per traced job and reports medians or means.
type collector map[string][]float64

func (c collector) add(name string, v float64) { c[name] = append(c[name], v) }

func (c collector) mean(name string) float64 {
	if len(c[name]) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range c[name] {
		sum += v
	}
	return sum / float64(len(c[name]))
}

// spans files a traced job's layer boundaries with the tracer.
func (tr *tracer) jobSpans(s *sample) {
	if !tr.admitJob() {
		return
	}
	root := tr.add("job", s.start, s.end, -1, s.id)
	for _, r := range s.reqs {
		if r.method == "POST" {
			tr.add("client.submit", r.start, r.end, root, s.id)
		}
	}
	if s.started.IsZero() || s.finished.IsZero() {
		return
	}
	tr.add("service.queue_wait", s.submitted, s.started, root, s.id)
	runSpan := tr.add("service.run", s.started, s.finished, root, s.id)
	tr.add("client.poll_gap", s.finished, s.end, root, s.id)
	if s.res != nil {
		tr.add("engine", s.finished.Add(-time.Duration(s.res.RunNS)), s.finished, runSpan, s.id)
	}
	for _, sh := range inProcessShards(s.events) {
		tr.add(fmt.Sprintf("parallel.shard%d", sh.k), sh.start, sh.end, runSpan, s.id)
	}
	for _, so := range s.shards {
		rtt := tr.add("dist.shard_rtt", so.first, so.last, runSpan, so.id)
		if !so.finished.IsZero() {
			tr.add("dist.shard_engine", so.finished.Add(-time.Duration(so.runNS)), so.finished, rtt, so.id)
		}
	}
	if t0, t1, ok := eventSpan(s.events, "dist_phase", "merging", "dist_phase", "done"); ok {
		tr.add("dist.merge", t0, t1, runSpan, s.id)
	}
}

// fromJobs derives the client, service, parallel and dist numbers from
// the traced window's jobs.
func fromJobs(w *workload, win *window, oracle map[string]counts, tr *tracer, out map[string]float64) {
	c := collector{}
	attempts, rejected := 0, 0
	for i := range win.samples {
		s := &win.samples[i]
		attempts += 1 + s.rejected
		rejected += s.rejected
		if !s.good(oracle) {
			continue
		}
		tr.jobSpans(s)
		submit, up, down := 0.0, 0.0, 0.0
		for _, r := range s.reqs {
			if r.method == "POST" {
				submit += ms(r.end.Sub(r.start))
			}
			up += float64(r.up)
			down += float64(r.down)
		}
		runNS := time.Duration(s.res.RunNS)
		c.add("client.submit_ms", submit)
		c.add("client.poll_gap_ms", ms(s.end.Sub(s.finished)))
		c.add("client.requests_per_job", float64(len(s.reqs)))
		c.add("client.bytes_up_per_job", up)
		c.add("client.bytes_down_per_job", down)
		c.add("service.queue_wait_ms", ms(s.started.Sub(s.submitted)))
		c.add("service.run_ms", ms(s.finished.Sub(s.started)))
		c.add("service.run_overhead_ms", ms(s.finished.Sub(s.started)-runNS))
		c.add("service.fixed_overhead_ms", ms(s.latency()-runNS))
		hit := 0.0
		if s.res.CacheHit {
			hit = 1
		}
		c.add("service.cache_hit_share", hit)
		engine := "csim."
		if w.engine == "csim-C" {
			engine = "compiled."
			c.add("compiled.good_evals_per_job", float64(s.res.Stats.GoodEvals))
		} else {
			c.add("csim.peak_elems", float64(s.res.Stats.PeakElems))
		}
		c.add(engine+"evals_per_job", float64(s.res.Stats.Evals))
		c.add(engine+"mem_bytes", float64(s.res.Stats.MemBytes))

		// In-process shards, from the job's shard_start/shard_finish events.
		if shards := inProcessShards(s.events); len(shards) > 0 {
			slowest, sum := 0.0, 0.0
			var lastFinish time.Time
			for _, sh := range shards {
				d := ms(sh.end.Sub(sh.start))
				slowest, sum = max(slowest, d), sum+d
				if sh.end.After(lastFinish) {
					lastFinish = sh.end
				}
			}
			c.add("parallel.shard_ms_max", slowest)
			c.add("parallel.shard_imbalance", slowest/(sum/float64(len(shards))))
			if t, ok := eventTime(s.events, "finish", ""); ok {
				c.add("parallel.merge_tail_ms", ms(t.Sub(lastFinish)))
			}
		}

		// Fleet shards, from the coordinator's requests and the workers'
		// records.
		if len(s.shards) > 0 {
			var rtt, eng, gap, reqs, to, from float64
			for _, so := range s.shards {
				rtt = max(rtt, ms(so.last.Sub(so.first)))
				eng = max(eng, ms(time.Duration(so.runNS)))
				gap = max(gap, ms(so.last.Sub(so.finished)))
				reqs += float64(so.reqs)
				to += float64(so.up)
				from += float64(so.down)
			}
			c.add("dist.shard_rtt_ms_max", rtt)
			c.add("dist.shard_engine_ms_max", eng)
			c.add("dist.shard_poll_gap_ms", gap)
			c.add("dist.requests_per_job", reqs)
			c.add("dist.bytes_to_workers_per_job", to)
			c.add("dist.bytes_from_workers_per_job", from)
			c.add("dist.overhead_ms", ms(s.latency())-eng)
			if t0, t1, ok := eventSpan(s.events, "run_start", "", "dispatch", ""); ok {
				c.add("dist.plan_ms", ms(t1.Sub(t0)))
			}
			if t0, t1, ok := eventSpan(s.events, "dist_phase", "merging", "dist_phase", "done"); ok {
				c.add("dist.merge_ms", ms(t1.Sub(t0)))
			}
			requeued := 0.0
			for _, ev := range s.events {
				if ev.Kind == "requeue" {
					requeued++
				}
			}
			out["dist.shards_requeued"] += requeued
		}
	}
	for name, vs := range c {
		out[name] = median(vs)
	}
	// Shares and per-job counts are means, not medians.
	for _, name := range []string{"service.cache_hit_share", "client.requests_per_job",
		"client.bytes_up_per_job", "client.bytes_down_per_job",
		"dist.requests_per_job", "dist.bytes_to_workers_per_job", "dist.bytes_from_workers_per_job"} {
		out[name] = c.mean(name)
	}
	out["service.rejected_share"] = float64(rejected) / float64(attempts)
	if n := len(c["service.run_ms"]); n > 0 {
		out["service.rss_mb_per_kjob"] = win.rssGrowthMB / float64(n) * 1000
	}
}

// layerPass times direct calls into each layer on the workload's first
// input. Each number is the median of five calls, or of as many as fit in
// 1.5 s when one call is slow (a csim-C run on s35932 takes over 4 s).
func layerPass(ctx context.Context, w *workload, e *env, in *input, tr *tracer, out map[string]float64) error {
	var lerr error
	repeated := func(name string, measure func() (float64, error)) float64 {
		var vs []float64
		begin := time.Now()
		for len(vs) < 5 && (len(vs) == 0 || time.Since(begin) < 1500*time.Millisecond) {
			v, err := measure()
			if err != nil && lerr == nil {
				lerr = fmt.Errorf("layer pass %s: %w", name, err)
			}
			vs = append(vs, v)
		}
		return median(vs)
	}
	med := func(name string, fn func() error) float64 {
		return repeated(name, func() (float64, error) {
			var err error
			d := tr.timed("layer."+name, func() { err = fn() })
			return ms(d), err
		})
	}

	c, err := in.circuit()
	if err != nil {
		return err
	}
	var text strings.Builder
	if err := faultsim.WriteBench(&text, c); err != nil {
		return err
	}
	out["netlist.parse_ms"] = med("netlist.parse", func() error {
		_, err := faultsim.ParseBench(c.Name, text.String())
		return err
	})
	out["netlist.parse_mb_per_s"] = float64(text.Len()) / 1e6 / (out["netlist.parse_ms"] / 1e3)
	out["netcheck.check_ms"] = med("netcheck.check", func() error {
		if ps := netcheck.Check(c); len(ps) > 0 {
			return fmt.Errorf("netcheck: %v", ps[0])
		}
		return nil
	})
	var stuck, trans *faultsim.Universe
	out["faults.collapse_ms"] = med("faults.collapse", func() error { stuck = faultsim.StuckFaults(c); return nil })
	out["faults.transition_universe_ms"] = med("faults.transition_universe", func() error { trans = faultsim.TransitionFaults(c); return nil })
	u := stuck
	if w.model == "transition" {
		u = trans
	}
	out["faults.universe_size"] = float64(u.NumFaults())
	var plan *faultsim.MacroPlan
	out["macro.extract_ms"] = med("macro.extract", func() error {
		var err error
		plan, err = faultsim.ExtractMacros(c, 0)
		return err
	})

	vs := faultsim.RandomVectors(c, w.vectors, in.spec.Seed)
	faultCycles := float64(vs.Len()) * float64(u.NumFaults())
	var res *faultsim.Result
	if w.engine == "csim-C" {
		var prog *faultsim.CompiledProgram
		out["compiled.compile_ms"] = med("compiled.compile", func() error { prog = faultsim.CompileCircuit(c, nil); return nil })
		out["compiled.trace_ms"] = med("compiled.trace", func() error {
			t, _ := prog.Trace(vs)
			out["compiled.trace_bytes"] = float64(t.Bytes())
			return nil
		})
		out["compiled.trace_cycles_per_s"] = float64(vs.Len()) / (out["compiled.trace_ms"] / 1e3)
		out["compiled.sim_ms"] = med("compiled.sim", func() error {
			sim, err := faultsim.NewCompiledWith(prog, u)
			if err != nil {
				return err
			}
			res = sim.Run(vs)
			return nil
		})
		out["compiled.fault_pass_us"] = (out["compiled.sim_ms"] - out["compiled.trace_ms"]) * 1e3 / float64(u.NumFaults())
		out["compiled.fault_cycles_per_s"] = faultCycles / (out["compiled.sim_ms"] / 1e3)
	} else {
		perCycle := med("goodsim.run", func() error {
			g := faultsim.NewGoodSim(c)
			for _, v := range vs.Vecs {
				g.Cycle(v)
			}
			return nil
		}) / float64(vs.Len())
		out["goodsim.cycle_us"] = perCycle * 1e3
		out["goodsim.cycles_per_s"] = 1e3 / perCycle

		mv := faultsim.CsimMV()
		mv.Plan = plan
		mvMS := med("csim.mv", func() error {
			sim, err := faultsim.New(u, mv)
			if err != nil {
				return err
			}
			res = sim.Run(vs)
			return nil
		})
		if w.model == "transition" {
			out["csim.mv_transition_ms"] = mvMS
		} else {
			out["csim.mv_stuck_ms"] = mvMS
		}
		out["csim.fault_cycles_per_s"] = faultCycles / (mvMS / 1e3)

		out["parallel.partition_ms"] = med("parallel.partition", func() error { parallel.Partition(u, 2); return nil })
		shape := faultsim.JobShape{Gates: len(c.Gates), Faults: u.NumFaults(), Vectors: vs.Len(), MaxProcs: 2}
		out["parallel.decide_us"] = med("parallel.decide", func() error {
			for i := 0; i < 1000; i++ {
				faultsim.PlanGrid(shape)
			}
			return nil
		}) // 1000 calls in ms = one call in us
		grid := faultsim.CsimGrid(2, 1)
		grid.Config.Plan = plan
		out["parallel.grid_k2_ms"] = med("parallel.grid_k2", func() error {
			_, _, err := faultsim.SimulateGrid(u, vs, grid)
			return err
		})
		out["parallel.grid_k2_speedup"] = mvMS / out["parallel.grid_k2_ms"]

		// A shard's own result comes back over HTTP, as the coordinator
		// gets it; merging two of them is faults.MergeResults.
		target := e.url
		if w.fleet {
			target = e.workerURLs[0]
		}
		parts := make([]*faults.Result, 2)
		for k := range parts {
			spec := in.spec
			spec.FaultShards, spec.FaultShard, spec.Windows, spec.ReturnDetections = 2, k, 1, true
			v, err := service.NewClient(target).Run(ctx, spec, 0)
			if err != nil || v.Result == nil || v.Result.Detections == nil {
				return fmt.Errorf("layer pass shard %d/2: %v (status %s %s)", k, err, v.Status, v.Error)
			}
			if parts[k], err = v.Result.Detections.Result(u); err != nil {
				return err
			}
		}
		out["faults.merge_ms"] = med("faults.merge", func() error {
			if m := faults.MergeResults(parts...); m.NumDet != res.NumDet {
				return fmt.Errorf("merged shards detect %d, single run %d", m.NumDet, res.NumDet)
			}
			return nil
		})
	}

	var payload []byte
	out["service.detections_encode_ms"] = med("service.detections_encode", func() error {
		var err error
		payload, err = json.Marshal(service.NewDetectionsView(res))
		return err
	})
	out["service.detections_bytes"] = float64(len(payload))
	out["service.detections_decode_ms"] = med("service.detections_decode", func() error {
		var dv service.DetectionsView
		if err := json.Unmarshal(payload, &dv); err != nil {
			return err
		}
		_, err := dv.Result(u)
		return err
	})

	// Cache miss against hit: the same inline circuit submitted twice with
	// a single vector, so the difference is the front end alone. A comment
	// line makes each repetition a new netlist to the server's sha256 key.
	rep := 0
	cl := service.NewClient(e.url)
	out["service.cache_miss_ms"] = repeated("service.cache_miss", func() (float64, error) {
		rep++
		spec := service.JobSpec{
			Bench: fmt.Sprintf("%s# layer pass %d\n", text.String(), rep), BenchName: c.Name,
			Model: w.model, Engine: w.engine, Random: 1, Seed: 1,
		}
		var lat [2]time.Duration
		for i := range lat {
			var v service.JobView
			var err error
			lat[i] = tr.timed([]string{"layer.service.cache_miss", "layer.service.cache_hit"}[i], func() { v, err = cl.Run(ctx, spec, 0) })
			if err != nil || v.Result == nil {
				return 0, fmt.Errorf("%v (status %s %s)", err, v.Status, v.Error)
			}
			if v.Result.CacheHit != (i == 1) {
				return 0, fmt.Errorf("submission %d read cache_hit=%t", i, v.Result.CacheHit)
			}
		}
		return ms(lat[0] - lat[1]), nil
	})
	return lerr
}

// perLayerOf assembles every per-layer metric of a traced run. Metrics of
// a layer the workload bypasses stay 0. in is the input the layer pass
// runs on, first the run's first job, untracedP50 the untraced window's
// median latency.
func perLayerOf(ctx context.Context, w *workload, e *env, in *input, first *sample,
	untracedP50 float64, traced *window, oracle map[string]counts, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	fromJobs(w, traced, oracle, tr, out)
	if err := layerPass(ctx, w, e, in, tr, out); err != nil {
		return nil, err
	}
	out["service.first_job_ms"] = ms(first.latency())
	tl := latencies(traced, oracle)
	if len(tl) == 0 {
		return nil, errors.New("no job of the traced window finished with correct counts")
	}
	out["bench.samples"] = float64(len(tl))
	out["bench.trace_overhead_share"] = percentile(tl, 50)/untracedP50 - 1
	if w.fleet {
		out["dist.speedup_vs_local"] = out["csim.mv_stuck_ms"] / percentile(tl, 50)
	}
	return out, nil
}
