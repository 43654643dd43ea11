package compiled

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// Pool keeps the idle workers of one Program's runs, so that a run
// borrows them instead of building them: a reused worker keeps its node
// array, built once from the Program, and whatever capacity its level
// buckets, undo and output lists, fault slots and state-difference lists
// grew to in earlier runs. Everything a run sets — universe, trace, shard,
// counters, result — is reset when the worker is borrowed. Every
// Sim runs on a Pool: the engine layer keeps one beside each circuit's
// Program; the Program itself stays immutable and holds none.
//
// Idle workers sit in a sync.Pool, so garbage collection frees them: a
// circuit nobody runs keeps no worker alive for long, and a Pool's holder
// never pins one. Even so a worker outlives its run by up to two
// collections, which costs memory and saves nothing on a circuit that is
// run once, as every compiled-circuit cache miss that is never hit is: a
// Pool therefore drops the workers of its first run and keeps those of
// the runs after it. A Pool is safe for concurrent use.
type Pool struct {
	p    *Program
	ran  atomic.Bool // a run has returned its workers
	idle sync.Pool
}

// NewPool returns an empty pool of workers over p.
func NewPool(p *Program) *Pool { return &Pool{p: p} }

// NewPooled builds a simulator over the pool's already compiled program —
// the service cache memoizes the Program and its Pool and hands them to
// every job over the same circuit — whose runs borrow their workers from
// the pool and return them after a run that ended without error. The
// universe must be over the compiled circuit.
func NewPooled(pl *Pool, u *faults.Universe) (*Sim, error) {
	if u.Circuit != pl.p.c {
		return nil, fmt.Errorf("compiled: universe circuit %q does not match compiled program %q",
			u.Circuit.Name, pl.p.c.Name)
	}
	return &Sim{u: u, pool: pl}, nil
}

// get returns an idle worker, or a new one when the pool has none idle.
// The caller resets the worker.
func (pl *Pool) get() *worker {
	if w, _ := pl.idle.Get().(*worker); w != nil {
		return w
	}
	return newWorker(pl.p)
}

// put makes the workers of a finished run idle. They drop the run's
// universe, trace and result, so an idle worker keeps no job's data
// alive. The first run's workers are dropped.
func (pl *Pool) put(ws []*worker) {
	if !pl.ran.Swap(true) {
		return
	}
	for _, w := range ws {
		w.u, w.tr, w.res = nil, nil, nil
		pl.idle.Put(w)
	}
}
