package bench

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/vectors"
)

// Run runs every cell once, in order, and assembles the report.
func Run(cells []Cell) (*Report, error) {
	rep := &Report{Schema: Schema}
	for _, c := range cells {
		res, err := runCell(c)
		if err != nil {
			return nil, fmt.Errorf("bench: %s: %w", c.Key(), err)
		}
		rep.Cells = append(rep.Cells, res)
	}
	return rep, nil
}

// workload resolves a cell's fault universe and vector set through the
// harness (the single source of workload truth — see internal/harness).
func workload(c Cell) (*faults.Universe, *vectors.Set, error) {
	u, err := harness.Universe(c.Circuit, c.Model)
	if err != nil {
		return nil, nil, err
	}
	var vs *vectors.Set
	switch c.Vectors.Kind {
	case "det":
		vs, err = harness.DeterministicSet(c.Circuit)
	case "rand":
		vs, err = harness.RandomSet(c.Circuit, c.Vectors.N)
	default:
		return nil, nil, fmt.Errorf("unknown vector spec %q", c.Vectors)
	}
	if err != nil {
		return nil, nil, err
	}
	return u, vs, nil
}

// runCell runs one cell and keeps its integers: the run's shape and, as
// <engine>.<name>, each of its five work counters that is non-zero —
// gate evaluations, fresh fault passes and their in-place continuations,
// good-machine evaluations and detections. PROOFS and serial count none.
func runCell(c Cell) (CellResult, error) {
	u, vs, err := workload(c)
	if err != nil {
		return CellResult{}, err
	}
	t0 := time.Now()
	m, err := harness.Run(c.Engine, u, vs, c.Workers, nil)
	wall := time.Since(t0)
	if err != nil {
		return CellResult{}, err
	}
	res := CellResult{
		Key:      c.Key(),
		Patterns: m.Patterns,
		Faults:   m.Faults,
		Detected: m.Detected,
		PotOnly:  m.PotOnly,
		K:        m.Workers,
		Counters: map[string]int64{},
		Wall:     wall,
	}
	st := m.Stats
	for name, v := range map[string]int{
		"evals": st.Evals, "passes": st.Passes, "steps": st.Steps,
		"good_evals": st.GoodEvals, "detections": st.Detections,
	} {
		if v != 0 {
			res.Counters[c.Engine+"."+name] = int64(v)
		}
	}
	return res, nil
}
