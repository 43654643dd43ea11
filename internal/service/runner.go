package service

import (
	"context"

	"repro/internal/obs"
)

// RunRequest carries everything an admitted job needs to execute: the
// normalized spec, the circuit pinned at admission, and the per-job
// observability hooks the server wired up for the worker slot.
type RunRequest struct {
	// ID is the job's correlation ID.
	ID string
	// Spec is the normalized job spec.
	Spec *JobSpec
	// CC is the compiled circuit, pinned at admission.
	CC *Compiled
	// Obs is the per-job observability bundle: the job's logger and
	// flight recorder. It carries no registry and no tracer.
	Obs *obs.Observer
	// EngineWorkers is the server's default intra-job parallelism.
	EngineWorkers int
}

// JobRunner executes one admitted job. The default runner calls the
// in-process engines; a distributed coordinator substitutes itself via
// Config.Runner to fan the job out to a worker fleet while reusing the
// server's admission queue, retention, correlation and job API
// unchanged. Implementations must honor ctx cancellation and are
// called concurrently, one goroutine per busy worker slot.
type JobRunner interface {
	// RunJob executes one admitted job to a result view or an error;
	// context cancellation must abort the run.
	RunJob(ctx context.Context, req *RunRequest) (*ResultView, error)
}

// localRunner is the default JobRunner: the in-process engine switch.
type localRunner struct{}

// RunJob executes the job with the repository's local engines.
func (localRunner) RunJob(ctx context.Context, req *RunRequest) (*ResultView, error) {
	return execute(ctx, req.Spec, req.CC, req.Obs, req.EngineWorkers)
}
