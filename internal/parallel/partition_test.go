package parallel

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas/iscastest"
)

// TestPartitionDisjointExhaustive: every fault lands in exactly one
// partition, the one its ID is congruent to, in ascending order; sizes
// are faults.ShardSize's and differ by at most one.
func TestPartitionDisjointExhaustive(t *testing.T) {
	u := faults.StuckCollapsed(iscastest.MustGet("s298"))
	for _, k := range []int{1, 2, 3, 7, 16, u.NumFaults() + 3} {
		parts := Partition(u, k)
		if len(parts) != k {
			t.Fatalf("k=%d: got %d partitions", k, len(parts))
		}
		seen := make([]int, u.NumFaults())
		lo, hi := u.NumFaults(), 0
		for i, p := range parts {
			lo, hi = min(lo, len(p)), max(hi, len(p))
			if len(p) != faults.ShardSize(u.NumFaults(), i, k) {
				t.Fatalf("k=%d: partition %d holds %d faults, ShardSize says %d", k, i, len(p), faults.ShardSize(u.NumFaults(), i, k))
			}
			for j, id := range p {
				if int(id)%k != i || j > 0 && id <= p[j-1] {
					t.Fatalf("k=%d: partition %d lists fault %d at %d", k, i, id, j)
				}
				seen[id]++
			}
		}
		for id, n := range seen {
			if n != 1 {
				t.Fatalf("k=%d: fault %d appears in %d partitions", k, id, n)
			}
		}
		if hi-lo > 1 {
			t.Errorf("k=%d: partition sizes unbalanced: min %d max %d", k, lo, hi)
		}
	}
}
