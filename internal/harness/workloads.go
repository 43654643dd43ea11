package harness

import (
	"sync"

	"repro/internal/atpg"
	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/vectors"
)

// Deterministic test sets (Tables 2-4). For circuits up to s1494 scale the
// sets come from the repository's own sequential test generator
// (internal/atpg), reproducing the paper's use of the authors' companion
// generator [14]. For the two large circuits, where deterministic
// generation is outside this reproduction's budget, seeded random
// sequences of the PROOFS-era pattern-set sizes stand in (see DESIGN.md).
var detPatternsLarge = map[string]int{
	"s5378":  912,
	"s35932": 496,
}

// ATPGCutoffGates bounds the circuit size the deterministic generator is
// applied to.
const ATPGCutoffGates = 1000

var (
	detMu    sync.Mutex
	detCache = map[string]*vectors.Set{}
)

// DeterministicSet returns the deterministic test sequence for a suite
// circuit (cached; generation is deterministic).
func DeterministicSet(name string) (*vectors.Set, error) {
	detMu.Lock()
	defer detMu.Unlock()
	if vs, ok := detCache[name]; ok {
		return vs, nil
	}
	u, err := Universe(name, "stuck")
	if err != nil {
		return nil, err
	}
	c := u.Circuit
	var vs *vectors.Set
	if n, big := detPatternsLarge[name]; big || c.Stats().Gates > ATPGCutoffGates {
		if n == 0 {
			n = 512
		}
		vs = vectors.Random(c, n, seed(name)+1)
	} else {
		vs = atpg.GenerateVectors(u, atpg.Options{
			Seed:           seed(name),
			FillRandom:     true,
			RandomPreamble: 8 * c.Stats().PIs,
			MaxBacktrack:   100,
			MaxFrames:      6,
		})
		if vs.Len() == 0 {
			vs = vectors.Random(c, 16, seed(name)+1)
		}
	}
	detCache[name] = vs
	return vs, nil
}

// RandomSet returns n seeded random vectors for a suite circuit.
func RandomSet(name string, n int) (*vectors.Set, error) {
	c, err := iscas.Get(name)
	if err != nil {
		return nil, err
	}
	return vectors.Random(c, n, seed(name)+2), nil
}

// Universe returns a suite circuit's fault universe under model (one of
// engine.Models), from the circuit's artifact set.
func Universe(name, model string) (*faults.Universe, error) {
	c, err := iscas.Get(name)
	if err != nil {
		return nil, err
	}
	return Artifacts(c).Universe(model)
}

func seed(name string) int64 {
	var h int64 = 99991
	for _, b := range []byte(name) {
		h = h*131 + int64(b)
	}
	return h
}
