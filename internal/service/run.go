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

// execute runs one admitted job's engine under ctx on the circuit's
// cached artifact set and returns the result view. engine.Run builds what
// the engine reads that the set lacks, and stops every engine at its next
// cycle, fault or fault chunk × block once ctx is done.
func execute(ctx context.Context, spec *JobSpec, cc *Compiled, ob *obs.Observer, workersDefault int) (*ResultView, error) {
	u, err := cc.Universe(spec.Model)
	if err != nil {
		return nil, err
	}
	vs, err := BuildVectors(spec, cc)
	if err != nil {
		return nil, err
	}
	opt := engine.Options{
		Workers: spec.Workers, Shard: spec.FaultShard, Of: spec.FaultShards,
		Artifacts: cc.Artifacts, Obs: ob,
	}
	// A pinned shard runs on the node's own budget whatever the
	// coordinator's spec said about the fleet-wide split.
	if opt.Workers <= 0 || opt.Of > 0 {
		opt.Workers = workersDefault
	}
	// One fault-partition slice of a distributed grid reports the split
	// it belongs to.
	workers := opt.Of
	if workers == 0 {
		workers = engine.Workers(spec.Engine, u.NumFaults(), opt)
	}
	start := time.Now()
	res, st, err := engine.Run(ctx, spec.Engine, u, vs, opt)
	if err != nil {
		return nil, err
	}
	rv := NewResultView(spec, res, vs.Len(), workers, st, time.Since(start).Nanoseconds())
	// A cancellation that raced the final cycles still wins: the client
	// asked for the job to stop, so it reports cancelled, not done.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return rv, nil
}
