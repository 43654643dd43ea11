// Differential fuzzing: one seed derives an entire scenario — circuit
// shape, fault model, fault sample, vector count, and the parallel shard
// shapes — and every engine must agree with the serial oracle on it.
// TestFuzzDifferentialCorpus replays a fixed corpus in normal test runs
// (CI runs it with -run Fuzz -short); FuzzDifferential hands the same
// case runner to the native fuzzer so `go test -fuzz=FuzzDifferential`
// can search for disagreeing seeds.
package integration

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/compiled"
	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// sampleUniverse draws a random fault subset with re-indexed IDs, as a
// service user simulating a fault sample would. Rep is dropped: collapse
// bookkeeping is meaningless for a subset.
func sampleUniverse(u *faults.Universe, rng *rand.Rand) *faults.Universe {
	keep := 5 + rng.Intn(u.NumFaults())
	if keep >= u.NumFaults() {
		return u
	}
	perm := rng.Perm(u.NumFaults())[:keep]
	// Sorted selection keeps fault order (and thus detection events)
	// aligned with the parent universe's site order.
	sel := make([]bool, u.NumFaults())
	for _, i := range perm {
		sel[i] = true
	}
	s := &faults.Universe{Circuit: u.Circuit}
	for i, f := range u.Faults {
		if !sel[i] {
			continue
		}
		f.ID = int32(len(s.Faults))
		s.Faults = append(s.Faults, f)
	}
	return s
}

// fuzzCase is the shared case runner: seed → scenario → all engines must
// match the serial oracle bit for bit.
func fuzzCase(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	pis := 2 + rng.Intn(6)
	pos := 2 + rng.Intn(5)
	ffs := rng.Intn(12)
	gates := 20 + rng.Intn(120)
	nvec := 40 + rng.Intn(100)
	model := "stuck"
	if rng.Intn(2) == 1 {
		model = "transition"
	}

	c := genCircuit(t, seed, pis, pos, ffs, gates)
	var u *faults.Universe
	if model == "stuck" {
		u = faults.StuckCollapsed(c)
	} else {
		u = faults.Transition(c)
	}
	checkModel(t, c, u)
	if rng.Intn(2) == 1 {
		u = sampleUniverse(u, rng)
	}
	vs := vectors.Random(c, nvec, seed)

	workers := 1 + rng.Intn(5)
	// spread scales the pinned-shard split past the fault count of a
	// small sample, so some shards come out empty.
	spread := 1 + rng.Intn(5)
	gk := 2 + rng.Intn(2)
	tag := fmt.Sprintf("seed=%d %s/%s flts=%d vecs=%d w%d K%d of%d",
		seed, c.Name, model, u.NumFaults(), nvec, workers, gk, gk*spread)

	oracle, _ := serial.Simulate(context.Background(), u, vs)

	single, err := csim.New(u, csim.MV())
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	compare(t, tag+"/csim-MV", oracle, single.Run(vs))

	// The grid on a pinned budget and on the drawn one.
	for _, procs := range []int{gk, workers} {
		res, _, err := engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{Workers: procs})
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		compare(t, fmt.Sprintf("%s/csim-grid procs=%d", tag, procs), oracle, res)
	}

	// So do the pinned shards a coordinator would dispatch, some of them
	// empty when the sample is smaller than the split.
	parts := make([]*faults.Result, gk*spread)
	for k := range parts {
		parts[k], _, err = engine.Run(context.Background(), engine.CsimGrid, u, vs, engine.Options{
			Shard: k, Of: len(parts), Workers: workers})
		if err != nil {
			t.Fatalf("%s: shard %d: %v", tag, k, err)
		}
	}
	compare(t, tag+"/csim-grid shards", oracle, faults.MergeResults(parts...))

	csim2, err := compiled.New(u)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	res, err := csim2.RunContext(context.Background(), vs, workers)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	compare(t, tag+"/csim-C", oracle, res)
}

// fuzzCorpus is the fixed replayed corpus; FuzzDifferential seeds its
// search from the same values.
var fuzzCorpus = []int64{
	1, 2, 3, 17, 42, 99, 1234, 5678, 90210, 424242,
	7_000_003, 123_456_789,
}

// TestFuzzDifferentialCorpus replays the fixed corpus (a prefix of it in
// -short mode, keeping the CI lint/test job fast).
func TestFuzzDifferentialCorpus(t *testing.T) {
	corpus := fuzzCorpus
	if testing.Short() {
		corpus = corpus[:4]
	}
	for _, seed := range corpus {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fuzzCase(t, seed)
		})
	}
}

// FuzzDifferential is the native fuzz target: any seed the fuzzer
// invents becomes a full differential scenario. Case sizes are bounded
// by construction in fuzzCase, so every execution stays sub-second.
func FuzzDifferential(f *testing.F) {
	for _, seed := range fuzzCorpus {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		fuzzCase(t, seed)
	})
}
