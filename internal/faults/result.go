package faults

import "fmt"

// Result accumulates detections over a fault universe during simulation.
// All simulators (csim, PROOFS, serial) report through this type so their
// outputs are directly comparable.
type Result struct {
	Universe   *Universe
	Detected   []bool
	DetectedAt []int32 // vector index of first detection; -1 if undetected
	NumDet     int

	// Potential detections: the faulty machine drove X where the good
	// machine drove a binary value at a primary output. Such a fault may
	// or may not be caught on silicon; simulators of this era report the
	// count separately and never drop on it.
	PotDetected []bool
}

// NewResult returns an empty result over u.
func NewResult(u *Universe) *Result {
	r := &Result{
		Universe:    u,
		Detected:    make([]bool, len(u.Faults)),
		DetectedAt:  make([]int32, len(u.Faults)),
		PotDetected: make([]bool, len(u.Faults)),
	}
	for i := range r.DetectedAt {
		r.DetectedAt[i] = -1
	}
	return r
}

// PotDetect marks fault id potentially detected.
func (r *Result) PotDetect(id int32) { r.PotDetected[id] = true }

// NumPotOnly counts faults potentially but never hard detected.
func (r *Result) NumPotOnly() int {
	n := 0
	for i, p := range r.PotDetected {
		if p && !r.Detected[i] {
			n++
		}
	}
	return n
}

// Detect marks fault id detected at vector vec. It reports whether the
// fault was newly detected.
func (r *Result) Detect(id int32, vec int) bool {
	if r.Detected[id] {
		return false
	}
	r.Detected[id] = true
	r.DetectedAt[id] = int32(vec)
	r.NumDet++
	return true
}

// Coverage returns detected/total in [0,1].
func (r *Result) Coverage() float64 {
	if len(r.Detected) == 0 {
		return 0
	}
	return float64(r.NumDet) / float64(len(r.Detected))
}

// MergeResults combines per-partition results over the same universe into
// a single result. Detections and potential detections are unioned; if
// several parts detected the same fault, the smallest detecting vector
// index wins, so the merge is deterministic regardless of partition
// count, partition order, or goroutine scheduling. All parts must cover
// universes of identical size (normally the same Universe).
// Pinned by benchmark/; goes with the `[benchmark]` yardstick refresh.
func MergeResults(parts ...*Result) *Result {
	if len(parts) == 0 {
		panic("faults: MergeResults needs at least one result")
	}
	out := NewResult(parts[0].Universe)
	for _, p := range parts {
		if len(p.Detected) != len(out.Detected) {
			panic(fmt.Sprintf("faults: merging results over universes of %d and %d faults",
				len(out.Detected), len(p.Detected)))
		}
		for i := range p.Detected {
			if p.PotDetected[i] {
				out.PotDetected[i] = true
			}
			if !p.Detected[i] {
				continue
			}
			if !out.Detected[i] {
				out.Detected[i] = true
				out.DetectedAt[i] = p.DetectedAt[i]
				out.NumDet++
			} else if p.DetectedAt[i] < out.DetectedAt[i] {
				out.DetectedAt[i] = p.DetectedAt[i]
			}
		}
	}
	return out
}

// Diff returns a human-readable description of the first few faults on
// which two results over the same universe disagree — detected or not,
// first detecting vector, potentially detected or not — for
// cross-validation tests. It is empty when the results are equal.
func (r *Result) Diff(other *Result) string {
	if len(r.Detected) != len(other.Detected) {
		return fmt.Sprintf("universe sizes differ: %d vs %d", len(r.Detected), len(other.Detected))
	}
	var out string
	n := 0
	for i := range r.Detected {
		if r.Detected[i] != other.Detected[i] || r.DetectedAt[i] != other.DetectedAt[i] || r.PotDetected[i] != other.PotDetected[i] {
			out += fmt.Sprintf("fault %s: detected %v at %d (potential %v) vs %v at %d (%v)\n",
				r.Universe.Faults[i].Name(r.Universe.Circuit),
				r.Detected[i], r.DetectedAt[i], r.PotDetected[i],
				other.Detected[i], other.DetectedAt[i], other.PotDetected[i])
			n++
			if n >= 10 {
				out += "...\n"
				break
			}
		}
	}
	return out
}
