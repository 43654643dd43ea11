// Benchmarks regenerating the paper's tables. Each benchmark runs one
// table cell (circuit × engine) as a testing.B workload; cmd/tables prints
// the complete tables with the full circuit lists.
//
// Run everything:         go test -bench=. -benchmem
// One table:              go test -bench=Table3
// Full-size Table 3 row:  go test -bench=Table3Large -benchtime=1x
package faultsim_test

import (
	"fmt"
	"testing"

	"repro/internal/compiled"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/harness"
	"repro/internal/iscas"
	"repro/internal/netcheck"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// benchEngines are the four measured configurations of Tables 3-5.
var benchEngines = []string{
	engine.CsimV, engine.CsimM, engine.CsimMV, engine.PROOFS,
}

func deterministic(b *testing.B, name string) (*faults.Universe, *vectors.Set) {
	b.Helper()
	u, err := harness.StuckUniverse(name)
	if err != nil {
		b.Fatal(err)
	}
	vs, err := harness.DeterministicSet(name)
	if err != nil {
		b.Fatal(err)
	}
	return u, vs
}

func runCell(b *testing.B, eng string, u *faults.Universe, vs *vectors.Set) {
	b.Helper()
	var last harness.Measurement
	for i := 0; i < b.N; i++ {
		m, err := harness.Run(eng, u, vs, 0, nil)
		if err != nil {
			b.Fatal(err)
		}
		last = m
	}
	b.ReportMetric(last.FltCvg(), "cvg%")
	b.ReportMetric(float64(last.MemBytes)/(1<<20), "structMB")
	b.ReportMetric(float64(vs.Len()), "ptns")
}

// BenchmarkTable2Stats measures universe construction and statistics — the
// fixed costs behind Table 2.
func BenchmarkTable2Stats(b *testing.B) {
	for _, name := range []string{"s298", "s1494", "s5378"} {
		b.Run(name, func(b *testing.B) {
			c, err := harness.Circuit(name)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				u := faults.StuckCollapsed(c)
				_ = u.NumFaults()
				_ = c.Stats()
			}
		})
	}
}

// BenchmarkTable3 reproduces the deterministic-pattern comparison cells on
// small and medium circuits.
func BenchmarkTable3(b *testing.B) {
	for _, name := range []string{"s298", "s444", "s526", "s1238", "s1494"} {
		u, vs := deterministic(b, name)
		for _, eng := range benchEngines {
			b.Run(fmt.Sprintf("%s/%s", name, eng), func(b *testing.B) {
				runCell(b, eng, u, vs)
			})
		}
	}
}

// BenchmarkTable3Large runs the two big Table 3 rows (s5378, s35932).
// Each iteration is a full simulation; use -benchtime=1x.
func BenchmarkTable3Large(b *testing.B) {
	for _, name := range []string{"s5378", "s35932"} {
		u, vs := deterministic(b, name)
		for _, eng := range []string{engine.CsimMV, engine.PROOFS} {
			b.Run(fmt.Sprintf("%s/%s", name, eng), func(b *testing.B) {
				runCell(b, eng, u, vs)
			})
		}
	}
}

// BenchmarkTable4 reproduces the higher-coverage deterministic comparison
// (csim-MV vs PROOFS) on the ATPG-covered subset.
func BenchmarkTable4(b *testing.B) {
	for _, name := range []string{"s298", "s386", "s820", "s1488"} {
		u, vs := deterministic(b, name)
		for _, eng := range []string{engine.CsimMV, engine.PROOFS} {
			b.Run(fmt.Sprintf("%s/%s", name, eng), func(b *testing.B) {
				runCell(b, eng, u, vs)
			})
		}
	}
}

// BenchmarkTable5 reproduces the random-pattern rows on the largest
// circuit.
func BenchmarkTable5(b *testing.B) {
	for _, n := range []int{100, 200} {
		u, err := harness.StuckUniverse("s35932")
		if err != nil {
			b.Fatal(err)
		}
		vs, err := harness.RandomSet("s35932", n)
		if err != nil {
			b.Fatal(err)
		}
		for _, eng := range []string{engine.CsimMV, engine.PROOFS} {
			b.Run(fmt.Sprintf("%dptns/%s", n, eng), func(b *testing.B) {
				runCell(b, eng, u, vs)
			})
		}
	}
}

// BenchmarkTable6 reproduces the transition-fault simulation rows.
func BenchmarkTable6(b *testing.B) {
	for _, name := range []string{"s298", "s444", "s1238", "s1494"} {
		b.Run(name, func(b *testing.B) {
			u, err := harness.TransitionUniverse(name)
			if err != nil {
				b.Fatal(err)
			}
			vs, err := harness.DeterministicSet(name)
			if err != nil {
				b.Fatal(err)
			}
			runCell(b, engine.CsimMV, u, vs)
		})
	}
}

// BenchmarkCsimMV pins the flagship engine's hot path against the
// observability layer. The disabled case is the regression gate: with no
// observer every probe sits on the nil fast path, so it must cost the
// same as the engine did before the layer existed (the obs package's own
// alloc tests prove the per-op cost is 0 allocs). The observed case
// bounds what full metrics + phase tracing + fault-lifecycle recording
// adds when switched on.
func BenchmarkCsimMV(b *testing.B) {
	u, vs := deterministic(b, "s1238")
	b.Run("disabled", func(b *testing.B) {
		runCell(b, engine.CsimMV, u, vs)
	})
	b.Run("observed", func(b *testing.B) {
		var last harness.Measurement
		for i := 0; i < b.N; i++ {
			reg := obs.NewRegistry()
			ob := &obs.Observer{
				Metrics: reg,
				Tracer:  obs.NewTracer(reg),
				Faults:  obs.NewFaultLog(u.NumFaults(), nil, 0),
			}
			m, err := harness.Run(engine.CsimMV, u, vs, 0, ob)
			if err != nil {
				b.Fatal(err)
			}
			last = m
		}
		b.ReportMetric(last.FltCvg(), "cvg%")
		b.ReportMetric(float64(last.MemBytes)/(1<<20), "structMB")
	})
}

// Ablation benches for the design choices DESIGN.md calls out.

// BenchmarkAblationSplit isolates visible/invisible list splitting:
// csim-V (split) against the plain single-list simulator.
func BenchmarkAblationSplit(b *testing.B) {
	u, vs := deterministic(b, "s1238")
	for _, eng := range []string{engine.CsimV, engine.Csim} {
		b.Run(string(eng), func(b *testing.B) { runCell(b, eng, u, vs) })
	}
}

// BenchmarkAblationMacro isolates macro extraction: csim-MV against
// csim-V on a deterministic workload.
func BenchmarkAblationMacro(b *testing.B) {
	u, vs := deterministic(b, "s1238")
	for _, eng := range []string{engine.CsimMV, engine.CsimV} {
		b.Run(string(eng), func(b *testing.B) { runCell(b, eng, u, vs) })
	}
}

// BenchmarkAblationDrop isolates event-driven fault dropping against the
// scan-the-whole-circuit alternative the paper rejects.
func BenchmarkAblationDrop(b *testing.B) {
	u, vs := deterministic(b, "s1238")
	for _, eng := range []string{engine.CsimMV, engine.CsimEager} {
		b.Run(string(eng), func(b *testing.B) { runCell(b, eng, u, vs) })
	}
}

// BenchmarkAblationReconvergent compares the paper's fanout-free macros
// with the §2.2 reconvergent-region extension.
func BenchmarkAblationReconvergent(b *testing.B) {
	u, vs := deterministic(b, "s1238")
	b.Run("fanoutfree", func(b *testing.B) { runCell(b, engine.CsimMV, u, vs) })
	b.Run("reconvergent", func(b *testing.B) { runCell(b, engine.CsimReconv, u, vs) })
}

// missSink keeps the miss-chain stages' results live.
var missSink any

// BenchmarkMissChain measures what a compiled-circuit cache miss runs, one
// sub-benchmark per stage and the four together: parse → netcheck.Check →
// StuckCollapsed → compiled.Compile, on benchmark/'s svc-cold shape (a
// generated 35/49/179/2779 netlist shipped as .bench text) and on s35932.
// MB/s is over the .bench text. Compare parent and change side by side:
//
//	go test -run '^$' -bench MissChain -benchtime 20x .
func BenchmarkMissChain(b *testing.B) {
	cold, err := gen.Generate(gen.Spec{Name: "gen2779x179-1000", PIs: 35, POs: 49, DFFs: 179, Gates: 2779, Seed: 1000})
	if err != nil {
		b.Fatal(err)
	}
	for _, in := range []struct {
		name string
		c    *netlist.Circuit
	}{{"svc-cold", cold}, {"s35932", iscas.MustGet("s35932")}} {
		text := netlist.BenchString(in.c)
		parse := func() *netlist.Circuit {
			c, err := netlist.ParseBenchString(in.c.Name, text)
			if err != nil {
				b.Fatal(err)
			}
			return c
		}
		check := func(c *netlist.Circuit) {
			if ps := netcheck.Check(c); len(ps) > 0 {
				b.Fatal(netcheck.AsError(ps))
			}
		}
		stage := func(name string, run func()) {
			b.Run(in.name+"/"+name, func(b *testing.B) {
				b.SetBytes(int64(len(text)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					run()
				}
			})
		}
		stage("parse", func() { missSink = parse() })
		stage("netcheck", func() { check(in.c) })
		stage("collapse", func() { missSink = faults.StuckCollapsed(in.c) })
		stage("compile", func() { missSink = compiled.Compile(in.c) })
		stage("chain", func() {
			c := parse()
			check(c)
			missSink = [2]any{faults.StuckCollapsed(c), compiled.Compile(c)}
		})
	}
}
