// Package parallel holds the two decisions behind a fault-parallel run:
// how the universe is dealt into the pinned shards a coordinator fans
// out to worker nodes (Partition), and how many workers of the compiled
// kernel a job gets (the scheduler: JobShape, Plan, Decide, Explain,
// DecideObserved). It starts no goroutine; internal/engine runs the
// plans.
package parallel

import (
	"sort"

	"repro/internal/faults"
)

// Partition shards the universe's fault IDs into k disjoint, jointly
// exhaustive groups. Faults are ordered by site level (ties broken by ID)
// and dealt round-robin, so every partition receives a similar mix of
// shallow and deep fault sites — simulation cost tracks fault activity,
// not fault count, and activity correlates with site depth. Every node
// that computes Partition(u, k) agrees on which faults shard i holds, so
// faults.MergeResults over all k shard results is bit-identical to a
// whole-universe run.
// Pinned by benchmark/; goes with ROADMAP item 3's [benchmark] refresh.
func Partition(u *faults.Universe, k int) [][]int32 {
	order := make([]int32, len(u.Faults))
	for i := range order {
		order[i] = int32(i)
	}
	c := u.Circuit
	level := func(id int32) int32 { return c.Gate(u.Faults[id].Gate).Level }
	sort.SliceStable(order, func(i, j int) bool {
		li, lj := level(order[i]), level(order[j])
		if li != lj {
			return li < lj
		}
		return order[i] < order[j]
	})
	parts := make([][]int32, k)
	for i, id := range order {
		parts[i%k] = append(parts[i%k], id)
	}
	return parts
}
