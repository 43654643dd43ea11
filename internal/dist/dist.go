// Package dist is the distributed tier of csimd: a coordinator that
// accepts jobs on the ordinary service API, splits each into
// fault-partition shards with the parallel scheduler's verdict,
// fans the shards out to a fleet of worker csimd nodes over the same
// HTTP/JSON job API, and merges the streamed-back shard results with
// the deterministic first-detection-wins merge the in-process grid
// already uses. Because parallel.Partition is a pure function of
// (universe, K), every node agrees on shard contents, and
// faults.MergeResults over the K shard payloads is bit-identical to a
// local SimulateGrid run — and therefore to the serial oracle.
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
	// ProbeTimeout bounds one health probe (default 1s).
	ProbeTimeout time.Duration
	// ShardTimeout bounds one shard attempt on one worker, submission
	// through terminal state (default 2m). On expiry the shard is
	// cancelled best-effort and re-queued elsewhere.
	ShardTimeout time.Duration
	// MaxAttempts bounds how many workers a single shard may be tried
	// on before the whole job fails (default 3).
	MaxAttempts int
	// PerWorkerInflight bounds concurrently dispatched shards per
	// worker (default 2). Total dispatch concurrency is
	// len(Workers)×PerWorkerInflight.
	PerWorkerInflight int
	// RetryBase seeds the exponential backoff after a worker's 429
	// (default 50ms); the server's Retry-After hint wins when longer.
	RetryBase time.Duration
	// MaxRetryWait caps the total time one shard attempt may spend
	// backing off on 429s before the attempt counts as failed
	// (default 10s).
	MaxRetryWait time.Duration
	// Poll is how long a worker may hold one shard request open — the
	// submission first, status requests after it — before answering
	// "still running" (default 1s); the worker answers the moment the
	// shard ends, so this spaces the requests of a long shard, not the
	// delay of any, and a shard shorter than it is one request.
	Poll time.Duration
	// MaxProcs caps the scheduler's plan for auto-shaped jobs
	// (default len(Workers)×PerWorkerInflight).
	MaxProcs int
	// Obs is the coordinator's observability bundle; nil disables
	// dist metrics.
	Obs *obs.Observer
	// Log is the structured logger; nil disables coordinator logging.
	Log *obs.Logger
	// HTTPClient overrides the transport to workers (nil uses
	// http.DefaultClient).
	HTTPClient *http.Client
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.PerWorkerInflight <= 0 {
		c.PerWorkerInflight = 2
	}
	if c.RetryBase <= 0 {
		c.RetryBase = 50 * time.Millisecond
	}
	if c.MaxRetryWait <= 0 {
		c.MaxRetryWait = 10 * time.Second
	}
	if c.Poll <= 0 {
		c.Poll = time.Second
	}
	if c.MaxProcs <= 0 {
		c.MaxProcs = len(c.Workers) * c.PerWorkerInflight
	}
	if c.Obs == nil {
		c.Obs = &obs.Observer{}
	}
	if c.Log == nil {
		c.Log = c.Obs.Log
	}
	return c
}
