package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	faultsim "repro"
	"repro/internal/service"
)

// counts is what a job's result is checked against.
type counts struct {
	Detected int `json:"detected"`
	PotOnly  int `json:"pot_only"`
	Faults   int `json:"faults"`
	Patterns int `json:"patterns"`
}

func countsOf(rv *service.ResultView) counts {
	return counts{Detected: rv.Detected, PotOnly: rv.PotOnly, Faults: rv.Faults, Patterns: rv.Patterns}
}

// expectedFile is benchmark/expected.json: second-engine counts for every
// input of run seeds 1 and 2 (2 is held out for later claims) and for
// every pooled input. Inputs of other seeds are computed after the
// measured window by the same second engine.
type expectedFile struct {
	Note   string            `json:"note"`
	Counts map[string]counts `json:"counts"`
}

const expectedNote = "Oracle counts per input (circuit|model|vectors|seed) from a second engine: PROOFS for stuck-at, " +
	"single-thread csim-MV for transition. Regenerate with -write-expected."

func loadExpected(dir string) (map[string]counts, error) {
	buf, err := os.ReadFile(filepath.Join(dir, "expected.json"))
	if err != nil {
		return nil, err
	}
	var f expectedFile
	if err := json.Unmarshal(buf, &f); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	return f.Counts, nil
}

// input is one distinct job a run submits.
type input struct {
	// key names the input in expected.json.
	key  string
	spec service.JobSpec
}

// circuit returns the netlist the server will simulate for this input.
func (in *input) circuit() (*faultsim.Circuit, error) {
	if in.spec.Circuit != "" {
		return faultsim.Benchmark(in.spec.Circuit)
	}
	return faultsim.ParseBench(in.spec.BenchName, in.spec.Bench)
}

// makeInputs generates a run's inputs from its seed; the program under
// test only ever sees these.
func (w *workload) makeInputs(seed int64) ([]input, error) {
	ins := make([]input, w.inputs)
	for i := range ins {
		vseed := seed*1000 + int64(i)
		if w.pool != nil {
			n := int64(len(w.pool))
			vseed = w.pool[((seed%n+n)%n+int64(i))%n]
		}
		spec := service.JobSpec{Model: w.model, Engine: w.engine, Random: w.vectors, Seed: vseed}
		name := w.circuit
		if name != "" {
			spec.Circuit = name
		} else {
			name = fmt.Sprintf("gen%dx%d-%d", w.shape.Gates, w.shape.DFFs, vseed)
			c, err := faultsim.GenerateCircuit(faultsim.CircuitSpec{
				Name: name, PIs: w.shape.PIs, POs: w.shape.POs, DFFs: w.shape.DFFs, Gates: w.shape.Gates, Seed: vseed,
			})
			if err != nil {
				return nil, fmt.Errorf("generate %s: %w", name, err)
			}
			var sb strings.Builder
			if err := faultsim.WriteBench(&sb, c); err != nil {
				return nil, err
			}
			spec.Bench, spec.BenchName = sb.String(), name
		}
		ins[i] = input{key: fmt.Sprintf("%s|%s|rand:%d|seed:%d", name, w.model, w.vectors, vseed), spec: spec}
	}
	return ins, nil
}

// secondEngine simulates an input with an engine other than the one the
// workload runs: PROOFS for stuck-at, single-thread csim-MV for transition.
func secondEngine(in *input) (counts, error) {
	c, err := in.circuit()
	if err != nil {
		return counts{}, err
	}
	return secondEngineOn(c, in.spec.Model, in.spec.Random, in.spec.Seed)
}

func secondEngineOn(c *faultsim.Circuit, model string, n int, seed int64) (counts, error) {
	vs := faultsim.RandomVectors(c, n, seed)
	var res *faultsim.Result
	var u *faultsim.Universe
	switch model {
	case "stuck":
		u = faultsim.StuckFaults(c)
		sim, err := faultsim.NewProofs(u)
		if err != nil {
			return counts{}, err
		}
		res = sim.Run(vs)
	case "transition":
		u = faultsim.TransitionFaults(c)
		sim, err := faultsim.New(u, faultsim.CsimMV())
		if err != nil {
			return counts{}, err
		}
		res = sim.Run(vs)
	default:
		return counts{}, fmt.Errorf("no second engine for model %q", model)
	}
	return counts{Detected: res.NumDet, PotOnly: res.NumPotOnly(), Faults: u.NumFaults(), Patterns: vs.Len()}, nil
}

// resolve returns the oracle counts for every input, taking committed ones
// from known and computing the rest on all cores.
func resolve(ins []input, known map[string]counts) (map[string]counts, error) {
	out := make(map[string]counts, len(ins))
	var todo []*input
	for i := range ins {
		if c, ok := known[ins[i].key]; ok {
			out[ins[i].key] = c
		} else {
			todo = append(todo, &ins[i])
		}
	}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		ferr error
		next = make(chan *input)
	)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for in := range next {
				c, err := secondEngine(in)
				mu.Lock()
				if err != nil && ferr == nil {
					ferr = fmt.Errorf("oracle for %s: %w", in.key, err)
				}
				out[in.key] = c
				mu.Unlock()
			}
		}()
	}
	for _, in := range todo {
		next <- in
	}
	close(next)
	wg.Wait()
	return out, ferr
}

// writeExpected regenerates expected.json for run seeds 1 and 2, after a
// serial-oracle spot check of both second engines at 8 vectors.
func writeExpected(dir string) error {
	for _, name := range []string{"s298", "s5378"} {
		c, err := faultsim.Benchmark(name)
		if err != nil {
			return err
		}
		vs := faultsim.RandomVectors(c, 8, 1)
		for _, model := range []string{"stuck", "transition"} {
			u := faultsim.StuckFaults(c)
			if model == "transition" {
				u = faultsim.TransitionFaults(c)
			}
			res := faultsim.SimulateSerial(u, vs)
			want := counts{Detected: res.NumDet, PotOnly: res.NumPotOnly(), Faults: u.NumFaults(), Patterns: 8}
			got, err := secondEngineOn(c, model, 8, 1)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("spot check %s/%s at 8 vectors: second engine %+v, serial %+v", name, model, got, want)
			}
			fmt.Printf("spot check %s/%s rand:8: second engine agrees with serial (%d/%d detected)\n",
				name, model, got.Detected, got.Faults)
		}
	}
	f := expectedFile{Note: expectedNote, Counts: map[string]counts{}}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			ins, err := w.makeInputs(seed)
			if err != nil {
				return err
			}
			got, err := resolve(ins, f.Counts)
			if err != nil {
				return err
			}
			for k, c := range got {
				f.Counts[k] = c
			}
			fmt.Printf("%s seed %d: %d inputs\n", w.Name, seed, len(ins))
		}
	}
	// One input per line, sorted, so a regeneration diffs cleanly.
	keys := make([]string, 0, len(f.Counts))
	for k := range f.Counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	fmt.Fprintf(&sb, "{\n \"note\": %q,\n \"counts\": {\n", f.Note)
	for i, k := range keys {
		line, err := json.Marshal(f.Counts[k])
		if err != nil {
			return err
		}
		fmt.Fprintf(&sb, "  %q: %s", k, line)
		if i < len(keys)-1 {
			sb.WriteByte(',')
		}
		sb.WriteByte('\n')
	}
	sb.WriteString(" }\n}\n")
	return os.WriteFile(filepath.Join(dir, "expected.json"), []byte(sb.String()), 0o644)
}
