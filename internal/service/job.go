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
	"encoding/binary"
	"fmt"
	"slices"
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

// Engines lists the engine names JobSpec accepts: the registry's served
// engines. The fault models it accepts are engine.Models.
var Engines = engine.Names(func(e engine.Info) bool { return e.Served })

// JobSpec is the submit-request body: what to simulate and how.
type JobSpec struct {
	// Circuit names a built-in suite circuit (e.g. "s5378"). Exactly one
	// of Circuit and Bench must be set.
	Circuit string `json:"circuit,omitempty"`
	// Bench is an inline ISCAS-89 .bench netlist. Its size is bounded by
	// the server's MaxInlineBytes (oversized → 413).
	Bench string `json:"bench,omitempty"`
	// BenchName names the inline netlist in diagnostics (default
	// "inline"; empty on a suite circuit's job).
	BenchName string `json:"bench_name,omitempty"`
	// Model is the fault model: stuck (default), stuck-all, transition.
	Model string `json:"model,omitempty"`
	// Engine selects the simulator: csim, csim-V, csim-M, csim-MV
	// (default), csim-grid, csim-C (compiled bit-parallel; reuses the
	// circuit's cached compiled program), PROOFS, serial.
	Engine string `json:"engine,omitempty"`
	// Workers is the csim-C / csim-grid processor budget (<=0: the
	// server's EngineWorkers); either runs at most one worker per 256
	// faults.
	Workers int `json:"workers,omitempty"`
	// Windows is the removed vector-window count: 0 and 1 are accepted
	// and mean the same thing, more is a 400. Pinned by benchmark/ (its
	// shard specs send 1); goes with the `[benchmark]` yardstick refresh.
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
	// universe. Shard specs require a compiled engine, csim-C or
	// csim-grid — they are what a distributed coordinator submits to
	// worker nodes.
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
	if (sp.Circuit != "") == (sp.Bench != "") {
		return fmt.Errorf("exactly one of circuit and bench is required")
	}
	if sp.Bench != "" && sp.BenchName == "" {
		sp.BenchName = "inline"
	}
	if sp.Model == "" {
		sp.Model = "stuck"
	}
	if !slices.Contains(engine.Models, sp.Model) {
		return fmt.Errorf("unknown fault model %q (models: %s)", sp.Model, strings.Join(engine.Models, " | "))
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
		if info.Kind != "compiled" {
			return fmt.Errorf("fault-shard specs require engine %s or %s, not %q", engine.CsimC, engine.CsimGrid, sp.Engine)
		}
		if sp.FaultShard < 0 || sp.FaultShard >= sp.FaultShards {
			return fmt.Errorf("fault_shard %d outside [0, %d)", sp.FaultShard, sp.FaultShards)
		}
	} else if sp.FaultShard != 0 {
		return fmt.Errorf("fault_shard requires fault_shards > 0")
	}
	return nil
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

// DetectionsView is the detection payload a result carries when the spec
// set ReturnDetections: enough to reconstruct — and deterministically
// merge — a faults.Result without re-simulating. It lists the detected
// faults only, so a shard's payload is as long as what it detected, not
// as the universe it was cut from. Fault indexing follows the universe's
// collapsed order, which is a pure function of (circuit, model), so every
// node that compiles the same circuit agrees on it.
type DetectionsView struct {
	// Faults is the universe size the indices below refer to.
	Faults int `json:"faults"`
	// IDs lists the hard-detected faults, strictly ascending.
	IDs []int32 `json:"ids"`
	// At is each detected fault's first detecting vector index, parallel
	// to IDs.
	At []int32 `json:"at"`
	// Pot lists the indices of potentially-detected faults, ascending.
	Pot []int32 `json:"pot,omitempty"`
}

// NewDetectionsView extracts the detection payload from a result.
// Pinned, with Result, by benchmark/; goes with the
// `[benchmark]` yardstick refresh.
func NewDetectionsView(res *faults.Result) *DetectionsView {
	dv := &DetectionsView{
		Faults: len(res.DetectedAt),
		IDs:    make([]int32, 0, res.NumDet),
		At:     make([]int32, 0, res.NumDet),
	}
	for i, at := range res.DetectedAt {
		if at >= 0 {
			dv.IDs = append(dv.IDs, int32(i))
			dv.At = append(dv.At, at)
		}
	}
	for i, p := range res.PotDetected {
		if p {
			dv.Pot = append(dv.Pot, int32(i))
		}
	}
	return dv
}

// Check reports whether the payload is well formed over a universe of n
// faults: the size matches, every ID is in range and strictly above the
// one before, each has a first vector that is not negative, and every
// pot index is in range. Result runs it first; the coordinator runs it on
// a shard's reply, so a garbled one fails that attempt, not the merge.
func (dv *DetectionsView) Check(n int) error {
	if dv.Faults != n {
		return fmt.Errorf("service: detections payload covers %d faults, universe has %d", dv.Faults, n)
	}
	if len(dv.At) != len(dv.IDs) {
		return fmt.Errorf("service: detections payload has %d ids and %d vector indices", len(dv.IDs), len(dv.At))
	}
	for i, id := range dv.IDs {
		switch {
		case id < 0 || int(id) >= n:
			return fmt.Errorf("service: detected fault index %d out of range (universe %d)", id, n)
		case i > 0 && id <= dv.IDs[i-1]:
			return fmt.Errorf("service: detected fault index %d after %d, want ascending", id, dv.IDs[i-1])
		case dv.At[i] < 0:
			return fmt.Errorf("service: fault %d detected at vector %d", id, dv.At[i])
		}
	}
	for _, id := range dv.Pot {
		if id < 0 || int(id) >= n {
			return fmt.Errorf("service: pot fault index %d out of range (universe %d)", id, n)
		}
	}
	return nil
}

// Result reconstructs the faults.Result the payload was taken from,
// over a universe of the same (circuit, model). The round trip is
// exact, so coordinator-side MergeResults over reconstructed shard
// payloads equals a local merge of the in-process shard results.
func (dv *DetectionsView) Result(u *faults.Universe) (*faults.Result, error) {
	if err := dv.Check(u.NumFaults()); err != nil {
		return nil, err
	}
	res := faults.NewResult(u)
	for i, id := range dv.IDs {
		res.Detected[id] = true
		res.DetectedAt[id] = dv.At[i]
	}
	res.NumDet = len(dv.IDs)
	for _, id := range dv.Pot {
		res.PotDetected[id] = true
	}
	return res, nil
}

// packedDetections is a DetectionsView as a retained job keeps it: IDs
// and Pot as uvarint deltas from the entry before (taken mod 2^32, so
// any order packs), At as uvarints. Most entries take one or two bytes
// where the view's slices take four, and a worker keeps thousands of
// finished shard jobs.
type packedDetections struct {
	faults, ids, pot int
	buf              []byte
}

// packDetections packs dv; unpack returns an equal view.
func packDetections(dv *DetectionsView) *packedDetections {
	buf := make([]byte, 0, 5*(2*len(dv.IDs)+len(dv.Pot)))
	buf = appendDeltas(buf, dv.IDs)
	for _, at := range dv.At {
		buf = binary.AppendUvarint(buf, uint64(uint32(at)))
	}
	buf = appendDeltas(buf, dv.Pot)
	return &packedDetections{faults: dv.Faults, ids: len(dv.IDs), pot: len(dv.Pot), buf: slices.Clone(buf)}
}

// appendDeltas appends each entry of xs as the uvarint of its difference
// from the one before, the first from -1.
func appendDeltas(buf []byte, xs []int32) []byte {
	prev := ^uint32(0)
	for _, x := range xs {
		buf = binary.AppendUvarint(buf, uint64(uint32(x)-prev))
		prev = uint32(x)
	}
	return buf
}

// unpack rebuilds the view: IDs and At empty rather than nil, as
// NewDetectionsView leaves them, so the JSON is the same.
func (pd *packedDetections) unpack() *DetectionsView {
	buf := pd.buf
	next := func() uint32 {
		v, n := binary.Uvarint(buf)
		buf = buf[n:]
		return uint32(v)
	}
	deltas := func(xs []int32) {
		prev := ^uint32(0)
		for i := range xs {
			prev += next()
			xs[i] = int32(prev)
		}
	}
	dv := &DetectionsView{Faults: pd.faults, IDs: make([]int32, pd.ids), At: make([]int32, pd.ids)}
	deltas(dv.IDs)
	for i := range dv.At {
		dv.At[i] = int32(next())
	}
	if pd.pot > 0 {
		dv.Pot = make([]int32, pd.pot)
		deltas(dv.Pot)
	}
	return dv
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
	// the `[benchmark]` yardstick refresh.
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

// NewResultView is the view of a finished run of spec: res's counts over
// its whole universe, the applied vector count, the worker count the run
// reports, its counters and wall time, and the detections payload when
// the spec asked for it.
func NewResultView(spec *JobSpec, res *faults.Result, patterns, workers int, st csim.Stats, runNS int64) *ResultView {
	rv := &ResultView{
		Engine:   spec.Engine,
		Circuit:  res.Universe.Circuit.Name,
		Model:    spec.Model,
		Patterns: patterns,
		Faults:   res.Universe.NumFaults(),
		Detected: res.NumDet,
		PotOnly:  res.NumPotOnly(),
		Coverage: res.Coverage(),
		Workers:  workers,
		RunNS:    runNS,
		Stats:    st,
	}
	if spec.Engine == engine.CsimGrid {
		rv.Windows = 1 // pinned by benchmark/ (it reads the plan as workers x windows)
	}
	if spec.ReturnDetections {
		rv.Detections = NewDetectionsView(res)
	}
	return rv
}

// JobView is the job-status response body.
type JobView struct {
	// ID is the job identifier ("j1", "j2", ...).
	ID string `json:"id"`
	// Status is the lifecycle state.
	Status Status `json:"status"`
	// Spec echoes the normalized submission — an inline netlist by its
	// bench_name alone, without its text, so polling a job does not
	// download the netlist again each time.
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
// verdict, the worker-count decision, shard start/finish, merge —
// oldest first. It is most useful for failed, timed-out or cancelled
// jobs, but is available for any job still retained.
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
	// spec is fixed at admission but for release, which drops an inline
	// netlist's text under mu; the runner reads the text only while the
	// job runs, before that.
	spec JobSpec
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
	submitted time.Time
	started   time.Time
	finished  time.Time
	err       string
	// result is the finished job's view without its detections payload,
	// which dets holds packed.
	result *ResultView
	dets   *packedDetections
	// cancelRun cancels the running job's context; nil until running.
	// Cancelling a queued job goes through the queue instead.
	cancelRun func()

	done chan struct{}
}

func newJob(id string, spec JobSpec, cc *Compiled, cacheHit bool, now time.Time) *job {
	return &job{
		id: id, spec: spec, cc: cc, cacheHit: cacheHit,
		status: StatusQueued, submitted: now,
		done: make(chan struct{}),
	}
}

// view snapshots the job for JSON.
func (j *job) view() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:        j.id,
		Status:    j.status,
		Spec:      j.spec,
		Submitted: j.submitted.Format(time.RFC3339Nano),
		Error:     j.err,
		Result:    j.result,
	}
	if j.dets != nil {
		r := *j.result
		r.Detections = j.dets.unpack()
		v.Result = &r
	}
	v.Spec.Bench = ""
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

// finish moves the job to a terminal state exactly once, clips its
// flight ring to the events it holds and packs its detections payload,
// since a retained job is kept for lookups long after, adds it to
// counted (nil counts nowhere) and only then wakes the requests held on
// it, so a client that reads the server's counters after its job's view
// finds the job counted.
func (j *job) finish(status Status, now time.Time, res *ResultView, err string, counted *obs.Counter) {
	j.mu.Lock()
	if j.status.Terminal() {
		j.mu.Unlock()
		return
	}
	j.status = status
	j.finished = now
	if res != nil && res.Detections != nil {
		r := *res
		j.dets = packDetections(r.Detections)
		r.Detections = nil
		res = &r
	}
	j.result = res
	j.err = err
	j.cancelRun = nil
	j.release()
	j.mu.Unlock()
	j.flight.Clip()
	counted.Inc()
	close(j.done)
}

// release drops what only a live job needs: the circuit pinned at
// admission and an inline netlist's text, which the spec from here on
// names by its bench_name alone, as views always have. A retained job
// then costs the same whichever way its circuit arrived. Callers hold
// j.mu.
func (j *job) release() {
	j.cc = nil
	j.spec.Bench = ""
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
		j.flight.Clip()
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
