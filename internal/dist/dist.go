// Package dist is the distributed tier of csimd: a coordinator that
// accepts jobs on the ordinary service API, splits each into
// fault-partition shards (one per chunk of 256 faults, within the
// fleet's capacity), fans the shards out to a fleet of worker csimd
// nodes over the same HTTP/JSON job API, and merges the streamed-back
// shard results with the deterministic first-detection-wins merge the
// compiled kernel already uses. Because parallel.Partition is a pure
// function of (universe, K), every node agrees on shard contents, and
// faults.MergeResults over the K shard payloads is bit-identical to a
// local csim-C run — and therefore to the serial oracle.
//
// Fault tolerance: workers are health-probed against /readyz; a shard
// whose worker dies, times out, or fails is re-queued to a different
// worker (the failed one is excluded for that shard) with bounded
// retries. Shard IDs are idempotency keys — jobid.Shard over the
// parent ID, shard coordinates, and a digest of the work — so a
// re-submission of a still-live shard draws the worker's 409 and the
// coordinator adopts the in-flight run instead of duplicating it.
package dist

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// Config tunes a Coordinator. Workers is required; everything else
// has serviceable defaults.
type Config struct {
	// Workers lists the worker csimd base URLs
	// ("http://10.0.0.7:8416" style). At least one is required.
	Workers []string
	// ProbeInterval spaces the per-worker /readyz health probes
	// (default 2s).
	ProbeInterval time.Duration
	// PerWorkerInflight bounds concurrently dispatched shards per
	// worker (default 2). Total dispatch concurrency, and the
	// processor budget of a job that names no workers, is
	// len(Workers)×PerWorkerInflight.
	PerWorkerInflight int
	// Obs is the coordinator's observability bundle; nil disables
	// dist metrics.
	Obs *obs.Observer
	// Log is the structured logger; nil disables coordinator logging.
	Log *obs.Logger
	// HTTPClient overrides the transport to workers (nil uses
	// http.DefaultClient).
	HTTPClient *http.Client
}

// The coordinator's fixed bounds.
const (
	// probeTimeout bounds one /readyz health probe, and the best-effort
	// cancel sent for a shard that timed out.
	probeTimeout = time.Second
	// shardTimeout bounds one shard attempt on one worker, submission
	// through terminal state. On expiry the shard is cancelled
	// best-effort and re-queued elsewhere.
	shardTimeout = 2 * time.Minute
	// maxAttempts bounds how many workers one shard may be tried on
	// before the whole job fails.
	maxAttempts = 3
	// retryBase seeds the exponential backoff after a worker's 429; the
	// worker's Retry-After hint wins when longer.
	retryBase = 50 * time.Millisecond
	// maxRetryWait caps the total time one shard attempt may spend
	// backing off on 429s before the attempt counts as failed.
	maxRetryWait = 10 * time.Second
)

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.PerWorkerInflight <= 0 {
		c.PerWorkerInflight = 2
	}
	if c.Obs == nil {
		c.Obs = &obs.Observer{}
	}
	return c
}
