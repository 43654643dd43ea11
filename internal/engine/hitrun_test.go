package engine

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// hitRun is a warm csim-C job on a cached circuit: the artifact set has
// its universe and program built, and two runs have filled its worker
// pool, which keeps no worker of a circuit's first run.
type hitRun struct {
	a  *Artifacts
	u  *faults.Universe
	vs *vectors.Set
}

func newHitRun(tb testing.TB, circuit string, nv, workers int) *hitRun {
	tb.Helper()
	c := iscas.MustGet(circuit)
	h := &hitRun{a: Prepare(c), vs: vectors.Random(c, nv, 1)}
	var err error
	if h.u, err = h.a.Universe("stuck"); err != nil {
		tb.Fatal(err)
	}
	h.run(tb, workers)
	h.run(tb, workers)
	return h
}

func (h *hitRun) run(tb testing.TB, workers int) *faults.Result {
	res, _, err := Run(context.Background(), CsimC, h.u, h.vs, Options{Workers: workers, Artifacts: h.a})
	if err != nil {
		tb.Fatal(err)
	}
	return res
}

// TestHitRunAllocs bounds what a csim-C run on a cached circuit
// allocates: s298 at 64 random vectors on two workers made 477
// allocations (78.6 KB) while every run built its workers, because the
// node array, the level buckets and the lists grew again from empty. A
// run that borrows them from the circuit's pool allocates the trace, the
// merged result and the run's bookkeeping, about 30 allocations. The
// race detector's pool drops a share of the workers put back, so the
// bound holds only without it.
func TestHitRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops returned workers at random")
	}
	h := newHitRun(t, "s298", 64, 2)
	allocs := testing.AllocsPerRun(50, func() { h.run(t, 2) })
	t.Logf("a warm two-worker csim-C run on s298/rand:64 allocates %.0f times", allocs)
	if allocs > 48 {
		t.Errorf("a warm csim-C run allocates %.0f times, want at most 48", allocs)
	}
}

// TestPooledRunsConcurrent runs csim-C from four goroutines at once on
// one artifact set, so the runs borrow from and return to one pool
// together; every result must equal the serial oracle. The race job runs
// it.
func TestPooledRunsConcurrent(t *testing.T) {
	h := newHitRun(t, "s298", 70, 2)
	want, err := serial.Simulate(context.Background(), h.u, h.vs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]string, 4)
	for g := range errs {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				res, _, err := Run(context.Background(), CsimC, h.u, h.vs,
					Options{Workers: 1 + (g+i)%3, Artifacts: h.a})
				if err != nil {
					errs[g] = err.Error()
					return
				}
				if d := want.Diff(res); d != "" {
					errs[g] = fmt.Sprintf("run %d: %s", i, d)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, e := range errs {
		if e != "" {
			t.Errorf("goroutine %d: %s", g, e)
		}
	}
}

// BenchmarkHitRun times a csim-C job on a cached circuit through
// engine.Run, the service's cache-hit path: the universe, the program
// and the worker pool are warm, so an iteration is the good trace, the
// fault passes on two workers and the merge. allocs/op is what the run
// allocates; TestHitRunAllocs gates it on s298.
//
//	go test ./internal/engine -run '^$' -bench HitRun -benchtime 200x
func BenchmarkHitRun(b *testing.B) {
	for _, circuit := range []string{"s298", "s5378"} {
		b.Run(circuit+"/rand:64", func(b *testing.B) {
			h := newHitRun(b, circuit, 64, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h.run(b, 2)
			}
		})
	}
}
