// Package service is the networked fault-simulation service behind
// cmd/csimd: an HTTP/JSON job API in front of the repository's engines.
// A job names a circuit (built-in suite member or inline .bench text), a
// fault model, a vector spec and an engine; jobs are admitted into a
// bounded queue (full queue → 429 + Retry-After, never a hang), executed
// by a worker pool over internal/engine, and their Result/Stats are
// retrievable as JSON until evicted. A compiled-circuit
// cache keyed by netlist hash memoizes parse + fault-list collapse +
// macro extraction, so repeated jobs on the same netlist skip cone
// compilation entirely. See DESIGN.md §10 and the README "Serving"
// section.
package service

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/obs"
)

// JobIDHeader is the correlation header: a submit request may carry its
// own job ID in it (minted by a coordinator, say), the server echoes
// the admitted ID on every job-API response, and ServeClient forwards
// the ID it finds in the request context — so one correlation ID
// follows a job across process boundaries. The accepted grammar and the
// server's "j<seq>" minting live in internal/jobid, shared with the
// distributed coordinator so shard IDs obey the same rules at every
// tier (including 409 on live-ID reuse).
const JobIDHeader = "X-Csim-Job-Id"

// Fault models and engine names accepted by JobSpec, in the spelling the
// CLIs use.
var (
	// Models lists the accepted fault models.
	Models = []string{"stuck", "stuck-all", "transition"}
	// Engines lists the accepted engine names: the registry's served
	// engines.
	Engines = engine.Names(func(e engine.Info) bool { return e.Served })
)

// JobSpec is the submit-request body: what to simulate and how.
type JobSpec struct {
	// Circuit names a built-in suite circuit (e.g. "s5378"). Exactly one
	// of Circuit and Bench must be set.
	Circuit string `json:"circuit,omitempty"`
	// Bench is an inline ISCAS-89 .bench netlist. Its size is bounded by
	// the server's MaxInlineBytes (oversized → 413).
	Bench string `json:"bench,omitempty"`
	// BenchKey references an inline netlist already in the server's
	// compiled-circuit cache by its cache key ("sha256:<hex>"), instead
	// of shipping the text again. The distributed coordinator ships a
	// circuit once per worker, then submits every further shard by key.
	// An unknown or evicted key is a 400 whose problems list carries
	// BenchKeyMissProblem, telling the submitter to re-ship the text.
	// Exactly one of Circuit, Bench and BenchKey must be set.
	BenchKey string `json:"bench_key,omitempty"`
	// BenchName names the inline netlist in diagnostics (default
	// "inline").
	BenchName string `json:"bench_name,omitempty"`
	// Model is the fault model: stuck (default), stuck-all, transition.
	Model string `json:"model,omitempty"`
	// Engine selects the simulator: csim, csim-V, csim-M, csim-MV
	// (default), csim-grid, csim-C (compiled bit-parallel; reuses the
	// circuit's cached compiled program), PROOFS, serial.
	Engine string `json:"engine,omitempty"`
	// Workers is the csim-C / csim-grid worker budget (<=0: the server's
	// EngineWorkers); either runs at most one worker per 256 faults.
	Workers int `json:"workers,omitempty"`
	// Windows is the removed vector-window count: 0 and 1 are accepted
	// and mean the same thing, more is a 400. Pinned by benchmark/ (its
	// shard specs send 1); goes with ROADMAP item 3's [benchmark] refresh.
	Windows int `json:"windows,omitempty"`
	// Random asks for this many seeded random vectors. Exactly one of
	// Random and Vectors must be set.
	Random int `json:"random,omitempty"`
	// Seed seeds the random vectors (default 1).
	Seed int64 `json:"seed,omitempty"`
	// Vectors is inline vector text: one 0/1/X line per cycle.
	Vectors string `json:"vectors,omitempty"`
	// TimeoutMS bounds the job's run time in milliseconds; 0 means the
	// server default. The server caps it at its configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// FaultShards restricts the job to one fault partition of a K-way
	// split: the universe is dealt by the deterministic partitioner
	// (parallel.Partition) into FaultShards groups and only group
	// FaultShard is simulated. 0 (the default) simulates the whole
	// universe. Shard specs require engine csim-grid — they are what a
	// distributed coordinator submits to worker nodes.
	FaultShards int `json:"fault_shards,omitempty"`
	// FaultShard is the partition index in [0, FaultShards) when
	// FaultShards > 0.
	FaultShard int `json:"fault_shard,omitempty"`
	// ReturnDetections asks for the per-fault detection arrays
	// (ResultView.Detections) in addition to the counters — the payload
	// a coordinator needs to merge shard results deterministically.
	ReturnDetections bool `json:"return_detections,omitempty"`
}

// normalize fills defaults and validates the spec shape (everything that
// can be judged without compiling the circuit). It returns a user-facing
// error for a 400 response.
func (sp *JobSpec) normalize() error {
	set := 0
	for _, s := range []string{sp.Circuit, sp.Bench, sp.BenchKey} {
		if s != "" {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("exactly one of circuit, bench and bench_key is required")
	}
	if sp.BenchName == "" {
		sp.BenchName = "inline"
	}
	if sp.Model == "" {
		sp.Model = "stuck"
	}
	if !contains(Models, sp.Model) {
		return fmt.Errorf("unknown fault model %q (models: %s)", sp.Model, strings.Join(Models, " | "))
	}
	if sp.Engine == "" {
		sp.Engine = "csim-MV"
	}
	info, ok := engine.ByName(sp.Engine)
	if !ok || !info.Served {
		return fmt.Errorf("unknown engine %q (engines: %s)", sp.Engine, strings.Join(Engines, " | "))
	}
	if sp.Windows > 1 {
		return fmt.Errorf("vector windows were removed; csim-grid plans fault shards only")
	}
	if info.StuckOnly && sp.Model == "transition" {
		return fmt.Errorf("engine %s simulates stuck-at faults only", sp.Engine)
	}
	if (sp.Random > 0) == (sp.Vectors != "") {
		return fmt.Errorf("exactly one of random > 0 and vectors is required")
	}
	if sp.Random < 0 {
		return fmt.Errorf("random must be >= 0")
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0")
	}
	if sp.FaultShards < 0 {
		return fmt.Errorf("fault_shards must be >= 0")
	}
	if sp.FaultShards > 0 {
		if !info.Sharded {
			return fmt.Errorf("fault-shard specs require engine %s, not %q", engine.CsimGrid, sp.Engine)
		}
		if sp.FaultShard < 0 || sp.FaultShard >= sp.FaultShards {
			return fmt.Errorf("fault_shard %d outside [0, %d)", sp.FaultShard, sp.FaultShards)
		}
	} else if sp.FaultShard != 0 {
		return fmt.Errorf("fault_shard requires fault_shards > 0")
	}
	return nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// Status is a job's lifecycle state.
type Status string

// Job lifecycle states. Queued and running are live; done, failed and
// cancelled are terminal.
const (
	StatusQueued    Status = "queued"
	StatusRunning   Status = "running"
	StatusDone      Status = "done"
	StatusFailed    Status = "failed"
	StatusCancelled Status = "cancelled"
)

// Terminal reports whether the state is final.
func (s Status) Terminal() bool {
	return s == StatusDone || s == StatusFailed || s == StatusCancelled
}

// DetectionsView is the per-fault detection payload a result carries
// when the spec set ReturnDetections: enough to reconstruct — and
// deterministically merge — a faults.Result without re-simulating.
// Fault indexing follows the universe's collapsed order, which is a
// pure function of (circuit, model), so every node that compiles the
// same circuit agrees on it.
type DetectionsView struct {
	// DetectedAt is the first detecting vector index per fault, -1 when
	// undetected. Its length is the universe size.
	DetectedAt []int32 `json:"detected_at"`
	// Pot lists the indices of potentially-detected faults, ascending.
	Pot []int32 `json:"pot,omitempty"`
}

// NewDetectionsView extracts the detection payload from a result.
// Pinned, with Result, by benchmark/; goes with ROADMAP item 3's
// [benchmark] refresh.
func NewDetectionsView(res *faults.Result) *DetectionsView {
	dv := &DetectionsView{DetectedAt: make([]int32, len(res.DetectedAt))}
	copy(dv.DetectedAt, res.DetectedAt)
	for i, p := range res.PotDetected {
		if p {
			dv.Pot = append(dv.Pot, int32(i))
		}
	}
	return dv
}

// Result reconstructs the faults.Result the payload was taken from,
// over a universe of the same (circuit, model). The round trip is
// exact, so coordinator-side MergeResults over reconstructed shard
// payloads equals a local merge of the in-process shard results.
func (dv *DetectionsView) Result(u *faults.Universe) (*faults.Result, error) {
	res := faults.NewResult(u)
	if len(dv.DetectedAt) != len(res.DetectedAt) {
		return nil, fmt.Errorf("service: detections payload covers %d faults, universe has %d",
			len(dv.DetectedAt), len(res.DetectedAt))
	}
	copy(res.DetectedAt, dv.DetectedAt)
	for i, at := range res.DetectedAt {
		if at >= 0 {
			res.Detected[i] = true
			res.NumDet++
		}
	}
	for _, id := range dv.Pot {
		if id < 0 || int(id) >= len(res.PotDetected) {
			return nil, fmt.Errorf("service: pot fault index %d out of range (universe %d)",
				id, len(res.PotDetected))
		}
		res.PotDetected[id] = true
	}
	return res, nil
}

// NumDetected counts the hard detections in the payload.
func (dv *DetectionsView) NumDetected() int {
	n := 0
	for _, at := range dv.DetectedAt {
		if at >= 0 {
			n++
		}
	}
	return n
}

// NumPotOnly counts faults potentially but never hard detected.
func (dv *DetectionsView) NumPotOnly() int {
	n := 0
	for _, id := range dv.Pot {
		if int(id) < len(dv.DetectedAt) && dv.DetectedAt[id] < 0 {
			n++
		}
	}
	return n
}

// ResultView is a finished job's payload: the detections and counters a
// harness.Measurement would carry, as JSON.
type ResultView struct {
	// Engine is the engine that ran.
	Engine string `json:"engine"`
	// Circuit is the simulated circuit's name.
	Circuit string `json:"circuit"`
	// Model is the fault model simulated.
	Model string `json:"model"`
	// Patterns is the applied vector count.
	Patterns int `json:"patterns"`
	// Faults is the fault-universe size.
	Faults int `json:"faults"`
	// Detected is the hard-detection count.
	Detected int `json:"detected"`
	// PotOnly counts potentially-but-never-hard detected faults.
	PotOnly int `json:"pot_only"`
	// Coverage is hard coverage in [0,1].
	Coverage float64 `json:"coverage"`
	// Workers is the csim-C / csim-grid worker count the run used, or
	// on a pinned shard the split it belongs to (0 otherwise).
	Workers int `json:"workers,omitempty"`
	// Windows is 1 on every csim-grid result (0 otherwise). Pinned by
	// benchmark/ (it reads the plan as workers x windows); goes with
	// ROADMAP item 3's [benchmark] refresh.
	Windows int `json:"windows,omitempty"`
	// RunNS is the measured engine wall time in nanoseconds.
	RunNS int64 `json:"run_ns"`
	// CacheHit reports whether the compiled-circuit cache served the
	// netlist (parse + collapse + macro extraction skipped).
	CacheHit bool `json:"cache_hit"`
	// Stats is the engine instrumentation block (zero for serial, memory
	// only for PROOFS).
	Stats csim.Stats `json:"stats"`
	// Detections is the per-fault payload, present when the spec set
	// ReturnDetections.
	Detections *DetectionsView `json:"detections,omitempty"`
}

// gridPollMS is the poll gap suggested for a timed job; see timed.
const gridPollMS = 100

// timed reports whether the job is waited for on a timer — poll_ms in its
// live views, Client.Wait's look schedule — rather than on one held
// request: a whole csim-grid job, not one of its pinned shards, which a
// coordinator holds like any other job. It is the one place that is
// decided; job.view and Client.Run both ask it.
//
// The grid keeps every core of the node, or every worker of the fleet,
// inside the kernel, and the timer is what keeps a caller's cycle time off
// the host's speed of the minute: a grid job of 20 to ~115 ms is reported
// at 120 ms, so a closed loop of them runs at 8.1 jobs/s to within 1%
// where reporting the end when it happens gave 16-22 jobs/s depending on
// the host (BENCHMARKS.md, DESIGN §10). The price is that report: up to
// 100 ms after the job ended. A caller that wants the end when it happens
// passes Wait an interval or uses Hold.
func (sp *JobSpec) timed() bool {
	info, _ := engine.ByName(sp.Engine)
	return info.Sharded && sp.FaultShards == 0
}

// JobView is the job-status response body.
type JobView struct {
	// ID is the job identifier ("j1", "j2", ...).
	ID string `json:"id"`
	// Status is the lifecycle state.
	Status Status `json:"status"`
	// DistPhase is the coordinator-side state-machine phase of a
	// distributed job (pending → dispatched → merging → done/failed);
	// empty for locally executed jobs.
	DistPhase string `json:"dist_phase,omitempty"`
	// PollMS, on a timed job (a whole csim-grid job) that has not ended,
	// is how many milliseconds the server suggests between status
	// requests, and Client.Wait's default schedule honours it; absent,
	// hold a request open on the job instead (?wait=).
	PollMS int `json:"poll_ms,omitempty"`
	// Spec echoes the normalized submission — an inline netlist by its
	// cache key (bench_key, next to bench_name) instead of its text, so
	// polling a job does not download the netlist again each time.
	Spec JobSpec `json:"spec"`
	// Submitted, Started and Finished are RFC3339Nano timestamps; Started
	// and Finished are empty until reached.
	Submitted string `json:"submitted"`
	// Started is set when a worker picks the job up.
	Started string `json:"started,omitempty"`
	// Finished is set on a terminal state.
	Finished string `json:"finished,omitempty"`
	// Error describes a failed job.
	Error string `json:"error,omitempty"`
	// Result is present once Status is done.
	Result *ResultView `json:"result,omitempty"`
}

// Postmortem is the flight-recorder dump served at
// GET /api/v1/jobs/{id}/debug: the job's identity and terminal state
// plus every retained lifecycle event — admission, queueing, cache
// verdict, the scheduler's decision and why, shard start/finish,
// merge — oldest first. It is most useful
// for failed, timed-out or cancelled jobs, but is available for any
// job still retained.
type Postmortem struct {
	// JobID is the correlation ID.
	JobID string `json:"job_id"`
	// Status is the job's lifecycle state at dump time.
	Status Status `json:"status"`
	// Engine is the engine the spec named.
	Engine string `json:"engine"`
	// Circuit is the circuit label (suite name or inline bench name).
	Circuit string `json:"circuit"`
	// Model is the fault model.
	Model string `json:"model"`
	// Submitted, Started and Finished are RFC3339Nano timestamps
	// (Started/Finished empty until reached).
	Submitted string `json:"submitted"`
	// Started is set when a worker picked the job up.
	Started string `json:"started,omitempty"`
	// Finished is set on a terminal state.
	Finished string `json:"finished,omitempty"`
	// Error is the failure/cancellation reason, if any.
	Error string `json:"error,omitempty"`
	// Events is the flight-recorder ring content, oldest first.
	Events []obs.FlightEvent `json:"events"`
	// DroppedEvents counts events evicted by the ring bound.
	DroppedEvents int64 `json:"dropped_events"`
}

// job is the server-side record. Mutable fields are guarded by mu; done
// closes exactly once on reaching a terminal state.
type job struct {
	id string
	// spec is fixed at admission but for release, which swaps an inline
	// netlist's text for its key under mu; the runner reads the text only
	// while the job runs, before that.
	spec JobSpec
	// benchKey is the cache key job views show in place of an inline
	// netlist's text; fixed at admission, empty for suite circuits.
	benchKey string
	// cacheHit is fixed at admission (the submit handler compiles through
	// the cache before enqueueing) and read-only afterwards.
	cacheHit bool
	// flight is the job's bounded lifecycle recorder, fixed at admission;
	// the recorder is internally synchronized.
	flight *obs.FlightRecorder

	mu sync.Mutex
	// cc pins the circuit compiled at admission until the job reaches a
	// terminal state; a retained finished job must not keep an evicted
	// circuit alive, nor its netlist's text (release).
	//simlint:guarded_by(mu)
	cc        *Compiled
	status    Status
	distPhase string
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	result    *ResultView
	// cancelRun cancels the running job's context; nil until running.
	// Cancelling a queued job goes through the queue instead.
	cancelRun func()

	done chan struct{}
}

func newJob(id string, spec JobSpec, cc *Compiled, cacheHit bool, now time.Time) *job {
	j := &job{
		id: id, spec: spec, cc: cc, cacheHit: cacheHit,
		status: StatusQueued, submitted: now,
		done: make(chan struct{}),
	}
	if spec.Bench != "" {
		j.benchKey = cc.Key
	}
	return j
}

// view snapshots the job for JSON.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Status:    j.status,
		DistPhase: j.distPhase,
		Spec:      j.spec,
		Submitted: j.submitted.Format(time.RFC3339Nano),
		Error:     j.err,
		Result:    j.result,
	}
	if v.Spec.Bench != "" {
		v.Spec.Bench, v.Spec.BenchKey = "", j.benchKey
	}
	if !j.status.Terminal() && j.spec.timed() {
		v.PollMS = gridPollMS
	}
	if !j.started.IsZero() {
		v.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		v.Finished = j.finished.Format(time.RFC3339Nano)
	}
	return v
}

// postmortem snapshots the job state and flight-recorder content.
func (j *job) postmortem() Postmortem {
	j.mu.Lock()
	pm := Postmortem{
		JobID:     j.id,
		Status:    j.status,
		Engine:    j.spec.Engine,
		Circuit:   circuitLabel(&j.spec),
		Model:     j.spec.Model,
		Submitted: j.submitted.Format(time.RFC3339Nano),
		Error:     j.err,
	}
	if !j.started.IsZero() {
		pm.Started = j.started.Format(time.RFC3339Nano)
	}
	if !j.finished.IsZero() {
		pm.Finished = j.finished.Format(time.RFC3339Nano)
	}
	j.mu.Unlock()
	pm.Events = j.flight.Events()
	if pm.Events == nil {
		pm.Events = []obs.FlightEvent{}
	}
	pm.DroppedEvents = j.flight.Dropped()
	return pm
}

// setRunning transitions queued → running; false when already terminal
// (a cancelled job popped by a worker).
func (j *job) setRunning(now time.Time, cancel func()) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != StatusQueued {
		return false
	}
	j.status = StatusRunning
	j.started = now
	j.cancelRun = cancel
	return true
}

// finish moves the job to a terminal state exactly once.
func (j *job) finish(status Status, now time.Time, res *ResultView, err string) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.finished = now
	j.result = res
	j.err = err
	j.cancelRun = nil
	j.release()
	j.mu.Unlock()
	close(j.done)
}

// release drops what only a live job needs: the circuit pinned at
// admission and an inline netlist's text, which the spec from here on
// names by its cache key, as views always have. A retained job then costs
// the same whichever way its circuit arrived. Callers hold j.mu.
func (j *job) release() {
	j.cc = nil
	if j.spec.Bench != "" {
		j.spec.Bench, j.spec.BenchKey = "", j.benchKey
	}
}

// compiled returns the circuit pinned at admission, nil once the job is
// terminal.
func (j *job) compiled() *Compiled {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cc
}

// requestCancel asks a live job to stop: a queued job is finished here
// directly (the caller has already removed it from the queue); a running
// job has its context cancelled and finishes on the worker. Reports
// whether the job was still live.
func (j *job) requestCancel(now time.Time) bool {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return false
	}
	if j.status == StatusQueued {
		j.status = StatusCancelled
		j.finished = now
		j.err = "cancelled while queued"
		j.release()
		j.mu.Unlock()
		j.flight.Record("finish", "cancelled while queued")
		close(j.done)
		return true
	}
	cancel := j.cancelRun
	j.mu.Unlock()
	j.flight.Record("cancel_requested", "cancelling the running engine")
	if cancel != nil {
		cancel()
	}
	return true
}

// currentStatus reads the state under the lock.
func (j *job) currentStatus() Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// setDistPhase records the coordinator state-machine phase (surfaced in
// JobView.DistPhase) and mirrors it into the flight recorder. The
// dist_phase kind (like server.go's run_start) is pinned by benchmark/
// and goes with ROADMAP item 3's [benchmark] refresh.
func (j *job) setDistPhase(phase string) {
	j.mu.Lock()
	j.distPhase = phase
	j.mu.Unlock()
	j.flight.Recordf("dist_phase", "coordinator phase %s", phase)
}
