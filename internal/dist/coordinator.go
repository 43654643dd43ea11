package dist

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/jobid"
	"repro/internal/obs"
	"repro/internal/service"
)

// Coordinator fans admitted jobs out to a worker fleet. It implements
// service.JobRunner, so a csimd started with -coordinator plugs it
// into the ordinary server via service.Config.Runner and keeps the
// whole service tier — admission queue, retention, correlation IDs,
// job API, flight recorder — unchanged; only execution is replaced.
//
// Every distributed job runs as K fault-partition shards, each a
// csim-grid job with pinned shard coordinates on one worker. The
// detections payloads stream back and merge deterministically, so the
// final result is bit-identical to a local run regardless of worker
// count, shard placement, arrival order, or mid-job worker loss.
type Coordinator struct {
	cfg Config
	log *obs.Logger
	reg *registry

	cRequeued  *obs.Counter
	cShardFail *obs.Counter
}

// New builds a coordinator over a non-empty worker fleet and starts
// its health probers; Close stops them.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("dist: coordinator needs at least one worker address")
	}
	cfg = cfg.withDefaults()
	reg := cfg.Obs.Metrics
	c := &Coordinator{
		cfg: cfg,
		log: cfg.Log,
		reg: newRegistry(cfg),

		cRequeued:  reg.Counter("dist.shards_requeued"),
		cShardFail: reg.Counter("dist.shards_failed"),
	}
	return c, nil
}

// Close stops the health probers. In-flight RunJob calls are not
// interrupted (the server drains those through its own lifecycle).
func (c *Coordinator) Close() { c.reg.stopProbes() }

// Workers returns the configured worker addresses.
func (c *Coordinator) Workers() []string {
	out := make([]string, len(c.reg.workers))
	for i, w := range c.reg.workers {
		out[i] = w.addr
	}
	return out
}

// RunJob distributes one admitted job across the fleet: plan the fault
// split, dispatch shards with retry and re-queue, merge the streamed
// results. Each step of the coordinator-side state machine (pending →
// dispatched → merging → done/failed) is a dist_phase event in the job's
// flight record. The dist_phase kind and the merging/done details are
// pinned by benchmark/ and go with the `[benchmark]` yardstick refresh.
func (c *Coordinator) RunJob(ctx context.Context, req *service.RunRequest) (rv *service.ResultView, err error) {
	phase := func(p string) { req.Obs.Recorder().Recordf("dist_phase", "coordinator phase %s", p) }
	phase("pending")
	defer func() {
		if err != nil {
			phase("failed")
		}
	}()
	start := time.Now()

	u, err := req.CC.Universe(req.Spec.Model)
	if err != nil {
		return nil, err
	}
	vs, err := service.BuildVectors(req.Spec, req.CC)
	if err != nil {
		return nil, err
	}

	// Shape the split as every compiled run does: one shard per chunk of
	// 256 faults at most, within the job's workers or, when it names
	// none, the fleet's dispatch capacity.
	procs := req.Spec.Workers
	if procs <= 0 {
		procs = len(c.reg.workers) * c.cfg.PerWorkerInflight
	}
	k := compiled.Workers(procs, u.NumFaults())
	req.Obs.Recorder().Recordf("decide", "plan %dx1 (procs=%d faults=%d: one fleet shard per chunk of 256 faults at most)", k, procs, u.NumFaults())

	jlog := c.log.With(slog.String("job_id", req.ID))
	// The dispatch and requeue kinds are pinned by benchmark/ and go with
	// the `[benchmark]` yardstick refresh.
	req.Obs.Recorder().Recordf("dispatch", "fanning %d fault shards over %d workers",
		k, len(c.reg.workers))
	jlog.Info("dist job dispatching",
		slog.String("phase", "dispatch"),
		slog.Int("fault_shards", k),
		slog.Int("workers", len(c.reg.workers)))
	phase("dispatched")

	jctx, cancel := context.WithCancel(ctx)
	defer cancel()
	views := make([]*service.ResultView, k)
	errCh := make(chan error, k)
	var wg sync.WaitGroup
	for shard := 0; shard < k; shard++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			rv, err := c.runShard(jctx, req, u.NumFaults(), shard, k)
			views[shard] = rv
			if err != nil {
				errCh <- fmt.Errorf("shard %d/%d: %w", shard, k, err)
				cancel() // one lost shard fails the job; stop the rest
			}
		}(shard)
	}
	wg.Wait()
	close(errCh)
	if err := firstRealError(errCh); err != nil {
		// The job's own cancellation/timeout outranks the shard errors
		// it induced.
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}

	phase("merging")
	res, st, err := mergeShards(u, views)
	if err != nil {
		return nil, err
	}

	rv = service.NewResultView(req.Spec, res, vs.Len(), k, st, time.Since(start).Nanoseconds())
	phase("done")
	return rv, nil
}

// mergeShards rebuilds each shard's result over u from its detections
// payload and folds them, in shard order, with the deterministic
// first-detection-wins merge; it returns the combined result and the
// merged engine stats. faults.MergeResults is permutation-invariant, so
// the merge does not depend on which shard finished first.
func mergeShards(u *faults.Universe, views []*service.ResultView) (*faults.Result, csim.Stats, error) {
	parts := make([]*faults.Result, len(views))
	stats := make([]csim.Stats, len(views))
	for k, rv := range views {
		res, err := rv.Detections.Result(u)
		if err != nil {
			return nil, csim.Stats{}, fmt.Errorf("dist: shard %d payload: %w", k, err)
		}
		parts[k], stats[k] = res, rv.Stats
	}
	return faults.MergeResults(parts...), csim.MergeStats(stats...), nil
}

// firstRealError drains a closed error channel preferring a
// non-cancellation error: the shard that actually failed, not the
// siblings it tore down.
func firstRealError(errCh chan error) error {
	var first error
	for err := range errCh {
		if first == nil {
			first = err
		}
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
	}
	return first
}

// permanentError marks a shard failure no other worker can fix (the
// fleet rejected the spec itself); retrying elsewhere is pointless.
type permanentError struct{ err error }

// Error delegates to the wrapped error.
func (e *permanentError) Error() string { return e.err.Error() }

// Unwrap exposes the wrapped error.
func (e *permanentError) Unwrap() error { return e.err }

// runShard drives one shard to completion: pick a worker, attempt,
// and on retryable failure re-queue to a different worker with the
// failed one excluded, up to maxAttempts. A reply whose detections
// payload is not well formed over the job's nFaults-fault universe is
// such a failure. When exclusions cover the whole fleet with attempts
// still in hand, the slate is wiped — a previously failed worker may
// have recovered.
func (c *Coordinator) runShard(ctx context.Context, req *service.RunRequest, nFaults, shard, of int) (*service.ResultView, error) {
	spec := shardSpec(req.Spec, shard, of, shardTimeout)
	id := jobid.Shard(req.ID, shard, of, shardHash(req.CC.Key, spec))
	excluded := map[int]bool{}
	for attempt := 1; ; attempt++ {
		if len(excluded) >= len(c.reg.workers) {
			excluded = map[int]bool{}
		}
		w, err := c.reg.pick(ctx, excluded)
		if err != nil {
			return nil, err
		}
		rv, err := c.attemptShard(ctx, w, id, spec)
		c.reg.release(w)
		if err == nil {
			if err = rv.Detections.Check(nFaults); err == nil {
				return rv, nil
			}
			err = fmt.Errorf("worker %s: %w", w.addr, err)
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		var pe *permanentError
		if errors.As(err, &pe) {
			c.cShardFail.Inc()
			return nil, err
		}
		if attempt >= maxAttempts {
			c.cShardFail.Inc()
			return nil, fmt.Errorf("failed on %d worker(s), last %s: %w", attempt, w.addr, err)
		}
		excluded[w.idx] = true
		c.cRequeued.Inc()
		req.Obs.Recorder().Recordf("requeue", "shard %d re-queued off %s after attempt %d: %v",
			shard, w.addr, attempt, err)
		c.log.Warn("dist shard requeued",
			slog.String("job_id", req.ID),
			slog.String("shard_id", id),
			slog.String("worker", w.addr),
			slog.Int("attempt", attempt),
			slog.String("error", err.Error()))
	}
}

// attemptShard runs one shard attempt against one worker under the
// shard timeout. The submission (idempotent ID; 429 backoff with jitter)
// carries the circuit exactly as the client sent it, inline text
// included, and is held open by the worker until the shard is terminal,
// or for the worker's longest hold, so a shard is one request; a status
// request is held only for a shard that outlives that hold or was adopted
// on a 409.
func (c *Coordinator) attemptShard(ctx context.Context, w *worker, id string, spec *service.JobSpec) (*service.ResultView, error) {
	actx, cancel := context.WithTimeout(obs.WithJobID(ctx, id), shardTimeout)
	defer cancel()

	backoff := retryBase
	var waited time.Duration
	var v service.JobView
	for submitted := false; !submitted; {
		var err error
		v, err = w.client.SubmitHold(actx, *spec)
		var qf *service.QueueFullError
		var ae *service.APIError
		switch {
		case err == nil:
			submitted = true
		case errors.As(err, &ae) && ae.StatusCode == http.StatusConflict:
			// The idempotency key is live on this worker — an earlier
			// delivery of this very shard. Adopt it instead of duplicating:
			// v is empty, so the shard is held below.
			submitted = true
		case errors.As(err, &qf):
			// Admission-full: exponential backoff with jitter, honoring the
			// worker's Retry-After when it asks for longer, bounded in
			// total by maxRetryWait.
			d := backoff
			if qf.RetryAfter > d {
				d = qf.RetryAfter
			}
			d += time.Duration(rand.Int63n(int64(d)/2 + 1))
			if waited+d > maxRetryWait {
				return nil, fmt.Errorf("submit: 429 backoff budget %s exhausted: %w", maxRetryWait, err)
			}
			if err := sleepCtx(actx, d); err != nil {
				return nil, err
			}
			waited += d
			backoff *= 2
		case errors.As(err, &ae) && ae.StatusCode >= 500:
			// Server-side trouble (e.g. 503 from a draining worker mid
			// rolling restart): this worker can't take the shard, but
			// another can. Flag it and re-queue.
			c.reg.setHealth(w, false, err)
			return nil, fmt.Errorf("submit: %w", err)
		case errors.As(err, &ae):
			// Any other API-level rejection is a spec problem every worker
			// would agree on; fail the job rather than bounce the shard
			// around the fleet.
			return nil, &permanentError{err: fmt.Errorf("submit: %w", err)}
		default:
			// The held submission broke off: the shard timed out, the job
			// was cancelled, or the worker is gone.
			return nil, c.shardLost(ctx, actx, w, id, "submit", err)
		}
	}
	if !v.Status.Terminal() {
		var err error
		if v, err = w.client.Hold(actx, id); err != nil {
			return nil, c.shardLost(ctx, actx, w, id, "wait", err)
		}
	}
	if v.Status != service.StatusDone {
		err := fmt.Errorf("worker %s reported %s: %s", w.addr, v.Status, v.Error)
		if v.Status == service.StatusFailed && strings.HasPrefix(v.Error, service.PanicErrorPrefix) {
			// The shard's run panicked: the next worker runs the same code
			// on the same shard, so re-queueing it only spreads the failure.
			return nil, &permanentError{err: err}
		}
		return nil, err
	}
	if v.Result == nil || v.Result.Detections == nil {
		return nil, fmt.Errorf("worker %s returned no detections payload", w.addr)
	}
	return v.Result, nil
}

// shardLost renders the failure of a request that was waiting for a shard
// (op names which) and acts on its cause. A shard timeout — not the job's
// cancellation — gets a best-effort cancel on the worker, so the re-queued
// copy doesn't compete with it; a transport error while the job is live
// means the worker is gone, so it is flagged now rather than at the next
// probe and the shard re-queues elsewhere.
func (c *Coordinator) shardLost(ctx, actx context.Context, w *worker, id, op string, err error) error {
	if actx.Err() != nil && ctx.Err() == nil {
		cctx, ccancel := context.WithTimeout(context.Background(), probeTimeout)
		_, _ = w.client.Cancel(cctx, id) // best effort: the worker may be the reason for the timeout
		ccancel()
		return fmt.Errorf("shard timeout after %s on %s", shardTimeout, w.addr)
	}
	var ae *service.APIError
	if !errors.As(err, &ae) && ctx.Err() == nil {
		c.reg.setHealth(w, false, err)
	}
	return fmt.Errorf("%s: %w", op, err)
}

// shardSpec derives shard k-of-n's worker-facing spec from the parent
// job's: csim-C with pinned shard coordinates, the full vector axis,
// and the detections payload switched on.
func shardSpec(parent *service.JobSpec, k, n int, timeout time.Duration) *service.JobSpec {
	s := *parent
	s.Engine = engine.CsimC
	s.Workers = 0
	s.FaultShard, s.FaultShards = k, n
	s.ReturnDetections = true
	s.TimeoutMS = timeout.Milliseconds()
	return &s
}

// shardHash digests the work a shard spec describes — circuit
// identity, fault model, vector axis, and shard coordinates — into
// the idempotency-key fragment of the shard's job ID. Two dispatches
// of the same shard of the same job collide by construction, which is
// what arms the worker's 409-on-live-ID dedup.
func shardHash(circuitKey string, spec *service.JobSpec) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%s|%d|%d|s%dof%d",
		circuitKey, spec.Model, spec.Vectors, spec.Random, spec.Seed,
		spec.FaultShard, spec.FaultShards)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// sleepCtx sleeps for d or until ctx ends.
func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
