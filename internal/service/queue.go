package service

import "sync"

// jobQueue is the bounded admission queue. It is a mutex/cond FIFO
// rather than a channel so that cancelling a queued job frees its slot
// immediately — with a buffered channel the slot would stay occupied
// until a worker drained the tombstone, and admission control would
// reject submissions the server actually has room for. A failed push
// is answered with 429 plus a Retry-After hint derived from the
// observed p90 of the job run-time histogram (Server.retryAfter); an
// empty histogram falls back to a 1s hint.
type jobQueue struct {
	mu   sync.Mutex
	cond *sync.Cond
	//simlint:guarded_by(mu)
	items []*job
	cap   int
	//simlint:guarded_by(mu)
	closed bool
}

func newJobQueue(capacity int) *jobQueue {
	if capacity < 1 {
		capacity = 1
	}
	q := &jobQueue{cap: capacity}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push admits j, reporting false when the queue is full or closed.
func (q *jobQueue) push(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.items) >= q.cap {
		return false
	}
	q.items = append(q.items, j)
	q.cond.Signal()
	return true
}

// full reports whether a push would fail right now. Admission asks
// before it spends a cache miss on the job; by the time the job is pushed
// the answer may have changed either way, and push decides.
func (q *jobQueue) full() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed || len(q.items) >= q.cap
}

// pop blocks until a job is available or the queue is closed and empty;
// ok is false only on that terminal drain.
func (q *jobQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	if len(q.items) == 0 {
		return nil, false
	}
	j = q.items[0]
	copy(q.items, q.items[1:])
	q.items[len(q.items)-1] = nil
	q.items = q.items[:len(q.items)-1]
	return j, true
}

// remove deletes a queued job by ID, freeing its admission slot; false
// when the job is no longer queued (already popped or never admitted).
func (q *jobQueue) remove(id string) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for i, j := range q.items {
		if j.id == id {
			copy(q.items[i:], q.items[i+1:])
			q.items[len(q.items)-1] = nil
			q.items = q.items[:len(q.items)-1]
			return true
		}
	}
	return false
}

// close stops admissions and wakes every blocked pop so workers can
// drain the remaining items and exit.
func (q *jobQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// depth reports the queued-job count.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}
