package parallel

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
)

// TestPartitionDisjointExhaustive: every fault lands in exactly one
// partition and sizes differ by at most one.
func TestPartitionDisjointExhaustive(t *testing.T) {
	u := faults.StuckCollapsed(iscas.MustGet("s298"))
	for _, k := range []int{1, 2, 3, 7, 16} {
		parts := Partition(u, k)
		if len(parts) != k {
			t.Fatalf("k=%d: got %d partitions", k, len(parts))
		}
		seen := make([]int, u.NumFaults())
		lo, hi := u.NumFaults(), 0
		for _, p := range parts {
			lo, hi = min(lo, len(p)), max(hi, len(p))
			for _, id := range p {
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
