package service

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// BuildVectors materializes the job's vector spec against the compiled
// circuit. Inline vector parse errors are user errors (400 at admission,
// where this is first called). The distributed coordinator calls it too,
// to report the pattern count of the merged result.
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
// result view: the cached artifact the registry says the engine consumes,
// then engine.Run, which stops every engine at its next cycle, fault or
// fault chunk × block once ctx is done.
func execute(ctx context.Context, spec *JobSpec, cc *Compiled, ob *obs.Observer, prefix string, workersDefault int) (*ResultView, error) {
	u, err := cc.Universe(spec.Model)
	if err != nil {
		return nil, err
	}
	vs, err := BuildVectors(spec, cc)
	if err != nil {
		return nil, err
	}
	info, _ := engine.ByName(spec.Engine) // validated at admission
	opt := engine.Options{
		Workers: spec.Workers, Shard: spec.FaultShard, Of: spec.FaultShards,
		Obs: ob, ObsPrefix: prefix,
	}
	// A pinned shard runs on the node's own budget whatever the
	// coordinator's spec said about the fleet-wide split.
	if opt.Workers <= 0 || opt.Of > 0 {
		opt.Workers = workersDefault
	}
	rv := &ResultView{
		Engine:   spec.Engine,
		Circuit:  cc.Circuit.Name,
		Model:    spec.Model,
		Patterns: vs.Len(),
		Faults:   u.NumFaults(),
		Workers:  engine.Workers(spec.Engine, u.NumFaults(), opt),
	}
	if info.Sharded {
		rv.Windows = 1 // pinned by benchmark/ (it reads the plan as workers x windows)
		if opt.Of > 0 {
			// One fault-partition slice of a distributed grid: the result
			// reports the split it belongs to.
			rv.Workers = opt.Of
		}
	}
	start := time.Now()
	// Only the artifact the engine consumes is fetched: the macro plan
	// costs a 34 ms extraction on a circuit's first job.
	switch info.Artifact {
	case engine.MacroPlan:
		if opt.Plan, err = cc.Plan(info.Config); err != nil {
			return nil, err
		}
	case engine.Program:
		opt.Program = cc.Program()
	}
	res, st, err := engine.Run(ctx, spec.Engine, u, vs, opt)
	if err != nil {
		return nil, err
	}
	rv.Stats = st
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
