package compiled

import (
	"sync"
	"sync/atomic"

	"repro/internal/faults"
)

// Pool keeps the idle workers of one Program's runs, so that a run
// borrows them instead of building them: a reused worker keeps its node
// array, built once from the Program, and whatever capacity its level
// buckets, undo and output lists, fault slots and state-difference lists
// grew to in earlier runs. Everything a run sets — universe, trace, ID
// list, counters, result — is reset when the worker is borrowed. The
// engine layer keeps one Pool beside each circuit's Program; the Program
// itself stays immutable and holds none.
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

// NewPooled is NewWith over the pool's program, with runs that borrow
// their workers from the pool and return them after a run that ended
// without error.
func NewPooled(pl *Pool, u *faults.Universe) (*Sim, error) {
	s, err := NewWith(pl.p, u)
	if err != nil {
		return nil, err
	}
	s.pool = pl
	return s, nil
}

// get returns an idle worker, or a new one over p when the pool has none
// idle or is nil; a Sim's pool is over its own program. The caller
// resets the worker.
func (pl *Pool) get(p *Program) *worker {
	if pl != nil {
		if w, _ := pl.idle.Get().(*worker); w != nil {
			return w
		}
	}
	return newWorker(p)
}

// put makes the workers of a finished run idle. They drop the run's
// trace and ID list, so an idle worker keeps no job's data alive. A nil
// pool, and the first run's, drop the workers.
func (pl *Pool) put(ws []*worker) {
	if pl == nil || !pl.ran.Swap(true) {
		return
	}
	for _, w := range ws {
		w.tr, w.ids = nil, nil
		pl.idle.Put(w)
	}
}

// Program returns the program the pool's workers run.
func (pl *Pool) Program() *Program { return pl.p }
