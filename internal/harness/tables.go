package harness

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/iscas"
	"repro/internal/obs"
)

// Table3Circuits is the circuit list of the paper's Table 3 (deterministic
// patterns I).
var Table3Circuits = []string{
	"s298", "s344", "s349", "s382", "s386", "s400", "s444", "s510",
	"s526", "s641", "s713", "s820", "s832", "s953", "s1196", "s1238",
	"s1423", "s1488", "s1494", "s5378", "s35932",
}

// Table4Circuits is the higher-coverage-test subset (Table 4): circuits
// where the sequential test generator produced improved sets.
var Table4Circuits = []string{
	"s298", "s344", "s349", "s382", "s386", "s400", "s444",
	"s526", "s820", "s832", "s1488", "s1494",
}

// Table6Circuits is the transition-fault list (Table 6).
var Table6Circuits = []string{
	"s298", "s344", "s349", "s382", "s386", "s400", "s444", "s510",
	"s526", "s641", "s713", "s820", "s832", "s953", "s1196", "s1238",
	"s1423", "s1488", "s1494",
}

// Table5PatternCounts are the random-pattern row sizes of Table 5.
var Table5PatternCounts = []int{100, 200, 500, 1000}

// Table2 reproduces the benchmark-statistics table.
func Table2(circuits []string) (*Table, error) {
	t := &Table{
		Title:  "Table 2. Benchmark circuits and tests",
		Header: []string{"ckt", "#PI", "#PO", "#FF", "#gates", "#flts", "#ptns", "cvg%"},
		Caption: "circuits: s27 genuine; others synthetic stand-ins at published shapes\n" +
			"#flts: equivalence-collapsed stuck-at; #ptns/cvg: deterministic sets (internal/atpg)",
	}
	for _, name := range circuits {
		c, err := iscas.Get(name)
		if err != nil {
			return nil, err
		}
		st := c.Stats()
		u, err := StuckUniverse(name)
		if err != nil {
			return nil, err
		}
		vs, err := DeterministicSet(name)
		if err != nil {
			return nil, err
		}
		m, err := Run(engine.CsimMV, u, vs, 0, nil)
		if err != nil {
			return nil, err
		}
		t.Add(name, itoa(st.PIs), itoa(st.POs), itoa(st.DFFs), itoa(st.Gates),
			itoa(u.NumFaults()), itoa(vs.Len()), fmt.Sprintf("%.1f", m.FltCvg()))
	}
	return t, nil
}

// Table3 reproduces the deterministic-patterns comparison of csim-V,
// csim-M, csim-MV and PROOFS (CPU seconds and memory), extended with a
// csim-C column.
func Table3(circuits []string) (*Table, error) { return Table3Observed(circuits, nil) }

// Table3Observed regenerates Table 3 under the observability layer: each
// cell runs with a fresh metric registry and tracer, and every cell's
// snapshot lands in sink when non-nil (the cmd/tables -metrics-out
// payload).
func Table3Observed(circuits []string, sink *MetricsSink) (*Table, error) {
	t := &Table{
		Title: "Table 3. Deterministic patterns (I)",
		Header: []string{"ckt",
			"V:CPU", "V:MEM", "M:CPU", "M:MEM", "MV:CPU", "MV:MEM",
			"C:CPU", "C:MEM",
			"PROOFS:CPU", "PROOFS:MEM"},
		Caption: "CPU in seconds, MEM in MB of fault-structure storage at peak\n" +
			"csim-C: compiled bit-parallel engine, 64 vectors per masked pass",
	}
	for _, name := range circuits {
		u, err := StuckUniverse(name)
		if err != nil {
			return nil, err
		}
		vs, err := DeterministicSet(name)
		if err != nil {
			return nil, err
		}
		row := []string{name}
		for _, eng := range []string{engine.CsimV, engine.CsimM, engine.CsimMV, engine.CsimC, engine.PROOFS} {
			reg := obs.NewRegistry()
			ob := &obs.Observer{Metrics: reg, Tracer: obs.NewTracer(reg)}
			m, err := Run(eng, u, vs, 0, ob)
			if err != nil {
				return nil, err
			}
			sink.Add(name+"/"+eng, reg.Snapshot())
			row = append(row, Seconds(m.CPU), Meg(m.MemBytes))
		}
		t.Add(row...)
	}
	return t, nil
}

// Table4 reproduces the higher-coverage deterministic comparison of
// csim-MV against PROOFS.
func Table4(circuits []string) (*Table, error) {
	t := &Table{
		Title: "Table 4. Deterministic patterns (II)",
		Header: []string{"ckt", "#ptns", "cvg%",
			"MV:CPU", "MV:MEM", "PROOFS:CPU", "PROOFS:MEM"},
	}
	for _, name := range circuits {
		u, err := StuckUniverse(name)
		if err != nil {
			return nil, err
		}
		vs, err := DeterministicSet(name)
		if err != nil {
			return nil, err
		}
		mv, err := Run(engine.CsimMV, u, vs, 0, nil)
		if err != nil {
			return nil, err
		}
		pr, err := Run(engine.PROOFS, u, vs, 0, nil)
		if err != nil {
			return nil, err
		}
		t.Add(name, itoa(vs.Len()), fmt.Sprintf("%.1f", mv.FltCvg()),
			Seconds(mv.CPU), Meg(mv.MemBytes), Seconds(pr.CPU), Meg(pr.MemBytes))
	}
	return t, nil
}

// Table5 reproduces the random-pattern campaign on the largest circuit.
func Table5(name string, counts []int) (*Table, error) {
	t := &Table{
		Title: fmt.Sprintf("Table 5. Random pattern simulation (%s)", name),
		Header: []string{"#ptns", "fltcvg%",
			"MV:CPU", "MV:MEM", "PROOFS:CPU", "PROOFS:MEM"},
		Caption: "memory stays below the deterministic run of Table 3: faults activate slowly",
	}
	for _, n := range counts {
		u, err := StuckUniverse(name)
		if err != nil {
			return nil, err
		}
		vs, err := RandomSet(name, n)
		if err != nil {
			return nil, err
		}
		mv, err := Run(engine.CsimMV, u, vs, 0, nil)
		if err != nil {
			return nil, err
		}
		pr, err := Run(engine.PROOFS, u, vs, 0, nil)
		if err != nil {
			return nil, err
		}
		t.Add(itoa(n), fmt.Sprintf("%.1f", mv.FltCvg()),
			Seconds(mv.CPU), Meg(mv.MemBytes), Seconds(pr.CPU), Meg(pr.MemBytes))
	}
	return t, nil
}

// Table6 reproduces the transition-fault simulation table: the stuck-at
// test sets applied to the transition universe. The paper's observation —
// coverage generally well below 50% — is the shape to match.
func Table6(circuits []string) (*Table, error) {
	t := &Table{
		Title:   "Table 6. Transition fault simulation",
		Header:  []string{"ckt", "#flts", "MEM", "CPU", "fltcvg%"},
		Caption: "stuck-at test sets are poor transition tests; coverage well below 50%",
	}
	for _, name := range circuits {
		u, err := TransitionUniverse(name)
		if err != nil {
			return nil, err
		}
		vs, err := DeterministicSet(name)
		if err != nil {
			return nil, err
		}
		m, err := Run(engine.CsimMV, u, vs, 0, nil)
		if err != nil {
			return nil, err
		}
		t.Add(name, itoa(u.NumFaults()), Meg(m.MemBytes), Seconds(m.CPU),
			fmt.Sprintf("%.1f", m.FltCvg()))
	}
	return t, nil
}

func itoa(n int) string { return fmt.Sprintf("%d", n) }
