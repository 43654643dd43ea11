package bench

import (
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// workCounters are the per-engine counters a cell records, published as
// <engine>.<name>: gate evaluations, fresh fault passes and their
// in-place continuations, good-machine evaluations and detections. An
// engine records the ones it publishes; PROOFS and serial publish none.
var workCounters = []string{"evals", "passes", "steps", "good_evals", "detections"}

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

// runCell runs one cell under a fresh registry and keeps its integers.
func runCell(c Cell) (CellResult, error) {
	u, vs, err := workload(c)
	if err != nil {
		return CellResult{}, err
	}
	reg := obs.NewRegistry()
	t0 := time.Now()
	m, err := harness.Run(c.Engine, u, vs, c.Workers, &obs.Observer{Metrics: reg})
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
	published := map[string]int64{}
	for _, p := range reg.Snapshot() {
		if p.Kind == "counter" {
			published[p.Name] = p.Value
		}
	}
	for _, name := range workCounters {
		name = c.Engine + "." + name
		if v, ok := published[name]; ok {
			res.Counters[name] = v
		}
	}
	return res, nil
}
