package compiled

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas/iscastest"
	"repro/internal/vectors"
)

// BenchmarkRunFaults times csim-C's fault passes on one worker. The
// Program and the packed good trace are built once, outside the timer;
// an iteration runs every fault of the universe over the seed-1 random
// vectors. evals/op is the run's exact evaluation count, the one
// TestStatsAccounting pins, and ns/eval divides the time by it: what
// one gate evaluation costs, pass and schedule overhead included.
// live/op counts the faults the kernel opened; the rest of the
// universe sits where no primary output can see it.
//
//	go test ./internal/compiled -run '^$' -bench RunFaults -benchtime 1x
func BenchmarkRunFaults(b *testing.B) {
	for _, tc := range []struct {
		circuit, model string
		nv             int
	}{
		{"s298", "stuck", 64},
		{"s5378", "stuck", 256},
		{"s5378", "transition", 256},
		{"s35932", "stuck", 64},
	} {
		b.Run(fmt.Sprintf("%s/%s/rand:%d", tc.circuit, tc.model, tc.nv), func(b *testing.B) {
			if testing.Short() && tc.circuit == "s35932" {
				b.Skip("s35932 takes seconds a run; skipped under -short")
			}
			c := iscastest.MustGet(tc.circuit)
			u := faults.StuckCollapsed(c)
			if tc.model == "transition" {
				u = faults.Transition(c)
			}
			sim, err := newSim(u)
			if err != nil {
				b.Fatal(err)
			}
			tr, _ := sim.pool.p.Trace(vectors.Random(c, tc.nv, 1))
			ids, res := u.IDs(), faults.NewResult(u)
			evals, live := 0, 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws, err := sim.runWorkers(context.Background(), tr, ids, res, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				evals += ws[0].evals
				live += ws[0].opened
			}
			b.ReportMetric(float64(evals)/float64(b.N), "evals/op")
			b.ReportMetric(float64(live)/float64(b.N), "live/op")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(evals), "ns/eval")
		})
	}
}
