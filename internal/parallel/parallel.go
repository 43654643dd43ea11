// Package parallel lists the fault shards a coordinator fans out to
// worker nodes (Partition). How many workers of the compiled kernel a
// job gets is compiled.Workers; internal/engine runs the shards. Pinned
// by benchmark/ (it times Partition); the package goes with the
// `[benchmark]` yardstick refresh.
package parallel

import "repro/internal/faults"

// Partition lists the fault IDs of each shard of a k-way split: shard i
// holds the faults whose ID ≡ i (mod k), in ascending order — the split
// faults.ShardSize counts and engine.Options{Shard, Of} runs. The shards
// are disjoint and jointly exhaustive, and every node that computes
// Partition(u, k) agrees on them, so faults.MergeResults over all k shard
// results is bit-identical to a whole-universe run.
// Pinned by benchmark/; goes with the `[benchmark]` yardstick refresh.
func Partition(u *faults.Universe, k int) [][]int32 {
	n := u.NumFaults()
	parts := make([][]int32, k)
	for i := range parts {
		parts[i] = make([]int32, 0, faults.ShardSize(n, i, k))
	}
	for id := range n {
		parts[id%k] = append(parts[id%k], int32(id))
	}
	return parts
}
