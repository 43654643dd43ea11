package csim

// Stats is the record of a run's work: engine.Run returns it, and it is
// the only one — no engine writes these counts anywhere else. The `json`
// tags are the service's wire form: a job result carries this struct as
// its "stats" block.
type Stats struct {
	Evals      int   `json:"evals"`                // faulty-machine gate evaluations
	Skips      int   `json:"skips"`                // merged machines skipped without re-evaluation
	GoodEvals  int   `json:"good_evals"`           // good-machine value refreshes
	Scheds     int   `json:"scheds"`               // macro roots scheduled for evaluation
	Passes     int   `json:"passes,omitempty"`     // csim-C: fresh propagations, one per fault × 64-cycle block
	Steps      int   `json:"steps,omitempty"`      // csim-C: continuations of a pass in place after a divergence cutoff
	PeakElems  int   `json:"peak_elems"`           // high-water mark of live fault elements
	CurElems   int   `json:"cur_elems,omitempty"`  // live fault elements now
	Macros     int   `json:"macros"`               // macro count of the plan in use
	MemBytes   int64 `json:"mem_bytes"`            // accounted fault-structure memory at peak
	Detections int   `json:"detections,omitempty"` // engine-observed detection events
}

// MergeStats combines per-partition counters into run totals. Every
// partition owns a disjoint element arena and a disjoint fault subset,
// so every field sums — the run's peak fault-structure footprint is the
// sum of per-partition peaks, never a last-writer-wins value — except
// Macros, a property of the plan every partition shares, which keeps the
// maximum.
func MergeStats(parts ...Stats) Stats {
	var out Stats
	for _, p := range parts {
		out.Evals += p.Evals
		out.Skips += p.Skips
		out.GoodEvals += p.GoodEvals
		out.Scheds += p.Scheds
		out.Passes += p.Passes
		out.Steps += p.Steps
		out.PeakElems += p.PeakElems
		out.CurElems += p.CurElems
		out.Macros = max(out.Macros, p.Macros)
		out.MemBytes += p.MemBytes
		out.Detections += p.Detections
	}
	return out
}
