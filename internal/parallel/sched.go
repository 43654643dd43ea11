package parallel

import (
	"fmt"
	"log/slog"
	"runtime"

	"repro/internal/compiled"
	"repro/internal/obs"
)

// The scheduler: given a job's shape, pick how many workers of the
// compiled kernel a csim-grid job runs on. The kernel's workers pull
// chunks of 256 faults off one counter and share one packed good trace,
// so the fault axis offers one worker per chunk (compiled.Workers) and
// the processor budget bounds the rest. The vector axis is not split:
// the kernel already packs 64 cycles into the word, and below 64 vectors
// a half-empty word still beats every interpreted alternative that was
// measured (DESIGN §12).
//
// The decision is a pure function of the JobShape, so the same job
// always gets the same plan.

// JobShape describes one simulation job for the scheduler.
type JobShape struct {
	// Gates is the circuit size (informational).
	Gates int
	// Faults is the fault-universe size.
	Faults int
	// Vectors is the vector-sequence length (informational).
	Vectors int
	// MaxProcs bounds the worker count; <= 0 means runtime.NumCPU(). Pin
	// it for deterministic planning across hosts.
	MaxProcs int
}

// Plan is the scheduler's decision: a K-way fault split.
type Plan struct {
	// FaultShards is K, the worker count.
	FaultShards int
}

// String renders the plan as "Kx1" — the shape a job result reports as
// workers x windows.
func (p Plan) String() string { return fmt.Sprintf("%dx1", p.FaultShards) }

// Decide picks the worker count for a job. It is deterministic: equal
// shapes yield equal plans (with MaxProcs <= 0 the processor count of
// the deciding host is part of the shape).
func Decide(sh JobShape) Plan {
	plan, _ := Explain(sh)
	return plan
}

// Explain is Decide plus the verdict's reasoning: the same plan and a
// one-line account of it — what the flight recorder stores so a
// postmortem shows not just the split but why it was chosen.
func Explain(sh JobShape) (Plan, string) {
	p := sh.MaxProcs
	if p <= 0 {
		p = runtime.NumCPU()
	}
	plan := Plan{FaultShards: compiled.Workers(p, sh.Faults)}
	return plan, fmt.Sprintf("procs=%d faults=%d: one compiled worker per chunk of 256 faults at most", p, sh.Faults)
}

// DecideObserved is Explain with the verdict recorded: a "decide"
// flight event carrying the plan and its reasoning, and one info log
// record.
func DecideObserved(sh JobShape, ob *obs.Observer) Plan {
	plan, why := Explain(sh)
	ob.Recorder().Recordf("decide", "plan %s (%s)", plan, why)
	ob.Logger().Info("sched decide",
		slog.String("phase", "decide"),
		slog.Int("fault_shards", plan.FaultShards),
		slog.String("why", why))
	return plan
}
