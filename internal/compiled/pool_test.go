package compiled

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// idleWorkers takes every idle worker out of the pool, requires each to
// be clean — nothing scheduled, dirty or listed, every bucket empty, the
// current planes the good ones, no trace or ID list kept — and puts them
// back.
func idleWorkers(t *testing.T, tag string, pl *Pool) int {
	t.Helper()
	var ws []*worker
	for {
		w, _ := pl.idle.Get().(*worker)
		if w == nil {
			break
		}
		ws = append(ws, w)
	}
	for wi, w := range ws {
		if w.p != pl.p || w.tr != nil || w.ids != nil {
			t.Fatalf("%s: idle worker %d keeps program %p (pool's %p), trace %p, %d IDs", tag, wi, w.p, pl.p, w.tr, len(w.ids))
		}
		if len(w.dirty)+len(w.touched)+len(w.pos) != 0 {
			t.Fatalf("%s: idle worker %d lists %d dirty, %d touched, %d output gates",
				tag, wi, len(w.dirty), len(w.touched), len(w.pos))
		}
		for l, b := range w.queue {
			if len(b) != 0 {
				t.Fatalf("%s: idle worker %d has %d gates queued on level %d", tag, wi, len(b), l)
			}
		}
		for g := range w.nodes {
			n := &w.nodes[g]
			if n.v1 != n.g1 || n.v0 != n.g0 || n.flags&(flagDirty|flagSched) != 0 {
				t.Fatalf("%s: idle worker %d left gate %d dirty: planes %x/%x, good %x/%x, flags %b",
					tag, wi, g, n.v1, n.v0, n.g1, n.g0, n.flags)
			}
		}
	}
	pl.put(ws)
	return len(ws)
}

// TestPooledWorkersReuse runs every run below on one Program's pool, so
// each borrows workers an earlier run left: stuck and transition
// universes in turn (results of two sizes), vector counts on both sides
// of the 64-cycle block, one to three workers, and the universe dealt
// into three pinned ID lists. Every result must equal the serial
// oracle's, and every idle worker must be clean. A run cancelled halfway
// and one whose watch panics must return their error and put no worker
// back, and the runs after them must still be exact.
func TestPooledWorkersReuse(t *testing.T) {
	ctx := context.Background()
	c := genCircuit(t, 8, 6, 5, 10, 130)
	pl := NewPool(Compile(c))
	universes := []*faults.Universe{faults.StuckAll(c), faults.Transition(c)}
	if n := universes[0].NumFaults(); n <= 2*ChunkFaults {
		t.Fatalf("stuck universe has %d faults, want over two chunks", n)
	}
	sets := map[int]*vectors.Set{}
	oracles := map[string]*faults.Result{}
	check := func(tag string, model int, nv int) {
		t.Helper()
		u, vs := universes[model], sets[nv]
		key := fmt.Sprint(model, nv)
		want := oracles[key]
		if want == nil {
			var err error
			if want, err = serial.Simulate(ctx, u, vs); err != nil {
				t.Fatal(err)
			}
			oracles[key] = want
		}
		sim, err := NewPooled(pl, u)
		if err != nil {
			t.Fatal(err)
		}
		for _, nw := range []int{1, 2, 3} {
			got, err := sim.RunFaults(ctx, vs, u.IDs(), nw, nil)
			if err != nil {
				t.Fatalf("%s/w%d: %v", tag, nw, err)
			}
			compare(t, fmt.Sprintf("%s/w%d", tag, nw), want, got)
			idleWorkers(t, fmt.Sprintf("%s/w%d", tag, nw), pl)
		}
		lists := make([][]int32, 3)
		for i := u.NumFaults() - 1; i >= 0; i-- {
			lists[i%3] = append(lists[i%3], int32(i))
		}
		var parts []*faults.Result
		for _, ids := range lists {
			got, err := sim.RunFaults(ctx, vs, ids, 2, nil)
			if err != nil {
				t.Fatalf("%s/lists: %v", tag, err)
			}
			parts = append(parts, got)
		}
		compare(t, tag+"/lists", want, faults.MergeResults(parts...))
		idleWorkers(t, tag+"/lists", pl)
	}
	models := []string{"stuck-all", "transition"}
	for _, nv := range []int{1, 63, 64, 65, 130} {
		sets[nv] = vectors.Random(c, nv, int64(nv))
		for m := range universes {
			check(fmt.Sprintf("rand:%d/%s", nv, models[m]), m, nv)
		}
	}

	for _, tc := range []struct {
		name  string
		watch func(cancel func()) WorkerFunc
		want  func(error) bool
	}{
		{"cancelled", func(cancel func()) WorkerFunc {
			return func(int, bool, int, int) { cancel() }
		}, func(err error) bool { return errors.Is(err, context.Canceled) }},
		{"panicked", func(func()) WorkerFunc {
			return func(worker int, done bool, _, _ int) {
				if worker == 1 && !done {
					panic("boom")
				}
			}
		}, func(err error) bool { return err != nil }},
	} {
		// A fresh pool past its first run: every worker of the failing
		// run is new, and any idle worker afterwards is one it put back.
		// Emptying the shared pool instead would miss what sits in
		// another P's private slot, which Get never takes.
		pl = NewPool(pl.p)
		pl.ran.Store(true)
		u := universes[0]
		sim, err := NewPooled(pl, u)
		if err != nil {
			t.Fatal(err)
		}
		rctx, cancel := context.WithCancel(ctx)
		res, err := sim.RunFaults(rctx, sets[130], u.IDs(), 3, tc.watch(cancel))
		cancel()
		if res != nil || !tc.want(err) {
			t.Fatalf("%s run returned result %v, error %v", tc.name, res, err)
		}
		if n := idleWorkers(t, tc.name, pl); n != 0 {
			t.Fatalf("%s run put %d workers back", tc.name, n)
		}
		for m := range universes {
			check(fmt.Sprintf("after %s/%s", tc.name, models[m]), m, 130)
		}
	}
}

// TestPoolKeepsWorkersFromSecondRun: a pool drops the workers of its
// first run, whose circuit may never run again, and keeps those of the
// next. The race detector's sync.Pool drops a share of what is put, so
// there only the first half holds.
func TestPoolKeepsWorkersFromSecondRun(t *testing.T) {
	c := genCircuit(t, 8, 6, 5, 10, 130)
	u := faults.StuckAll(c)
	vs := vectors.Random(c, 70, 1)
	sim, err := NewPooled(NewPool(Compile(c)), u)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.RunFaults(context.Background(), vs, u.IDs(), 3, nil); err != nil {
		t.Fatal(err)
	}
	if n := idleWorkers(t, "first run", sim.pool); n != 0 {
		t.Errorf("after the first run the pool holds %d idle workers, want none", n)
	}
	if _, err := sim.RunFaults(context.Background(), vs, u.IDs(), 3, nil); err != nil {
		t.Fatal(err)
	}
	// Get reaches the other Ps' shared lists but not their private slots,
	// so of the three workers put back at least two are found.
	if n := idleWorkers(t, "second run", sim.pool); n < 2 && !raceEnabled {
		t.Errorf("after the second run the pool holds %d idle workers, want at least 2 of 3", n)
	}
}
