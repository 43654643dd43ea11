package engine

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// TestEveryEngineMatchesSerial runs every registered name through Run on
// s27 and s298, both fault models where the engine takes them, and
// holds the result to the serial oracle: detections, first-detection
// vectors and potential detections. The good machines return an empty
// result and their evaluation count. It is the one place the engines
// are compared as a set; the other surfaces (harness, service, CLI) test
// what they add on top of Run.
func TestEveryEngineMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, circuit := range []string{"s27", "s298"} {
		c := iscas.MustGet(circuit)
		vs := vectors.Random(c, 70, 5)
		for _, u := range []*faults.Universe{faults.StuckCollapsed(c), faults.Transition(c)} {
			transition := !u.Faults[0].Kind.Stuck()
			want, err := serial.Simulate(ctx, u, vs)
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range Engines() {
				tag := circuit + "/" + info.Name
				if transition {
					tag += "/transition"
				}
				got, st, err := Run(ctx, info.Name, u, vs, Options{Workers: 2})
				if info.StuckOnly && transition {
					if err == nil {
						t.Errorf("%s: a stuck-only engine accepted transition faults", tag)
					}
					continue
				}
				if err != nil {
					t.Errorf("%s: %v", tag, err)
					continue
				}
				if info.Kind == "good" {
					if got.NumDet != 0 || st.GoodEvals == 0 {
						t.Errorf("%s: %d detections, stats %+v", tag, got.NumDet, st)
					}
					continue
				}
				if d := want.Diff(got); d != "" {
					t.Errorf("%s: detections differ from serial:\n%s", tag, d)
				}
				if !reflect.DeepEqual(want.DetectedAt, got.DetectedAt) || !reflect.DeepEqual(want.PotDetected, got.PotDetected) {
					t.Errorf("%s: first-detection vectors or potential detections differ from serial", tag)
				}
			}
		}
	}
}

// TestDegenerateJobs: no faults, one fault and one vector go through
// every fault engine — csim-grid and a pinned shard included — and match
// the oracle.
func TestDegenerateJobs(t *testing.T) {
	ctx := context.Background()
	c := iscas.MustGet("s27")
	whole := faults.StuckCollapsed(c)
	for _, tc := range []struct {
		name    string
		nfaults int
		nvec    int
	}{{"no faults", 0, 8}, {"one fault", 1, 8}, {"one vector", whole.NumFaults(), 1}} {
		u := &faults.Universe{Circuit: c, Faults: whole.Faults[:tc.nfaults]}
		vs := vectors.Random(c, tc.nvec, 3)
		want, _ := serial.Simulate(ctx, u, vs)
		run := func(tag, name string, opt Options) {
			got, _, err := Run(ctx, name, u, vs, opt)
			if err != nil {
				t.Errorf("%s/%s: %v", tc.name, tag, err)
			} else if d := want.Diff(got); d != "" || !reflect.DeepEqual(want.PotDetected, got.PotDetected) {
				t.Errorf("%s/%s differs from serial:\n%s", tc.name, tag, d)
			}
		}
		for _, name := range Names(func(e Info) bool { return e.Kind != "good" }) {
			run(name, name, Options{Workers: 3})
		}
		run("shard 0 of 1", CsimGrid, Options{Shard: 0, Of: 1})
	}
}

// TestRunRejects pins Run's input checks: an unknown name (the error
// lists the registry), a vector set of the wrong width, coordinates on
// an engine that takes none, coordinates out of range, and a context
// that is already done, on every engine.
func TestRunRejects(t *testing.T) {
	ctx := context.Background()
	c := iscas.MustGet("s27")
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 4, 1)
	if _, _, err := Run(ctx, "csim-X", u, vs, Options{}); err == nil || !strings.Contains(err.Error(), CsimMV) {
		t.Errorf("unknown engine: %v", err)
	}
	wide := &vectors.Set{NumPIs: vs.NumPIs + 1}
	if _, _, err := Run(ctx, CsimMV, u, wide, Options{}); err == nil {
		t.Error("a vector set one input too wide was accepted")
	}
	for _, bad := range []Options{{Shard: 0, Of: -1}, {Shard: -1, Of: 2}, {Shard: 2, Of: 2}, {Shard: 1}} {
		if _, _, err := Run(ctx, CsimGrid, u, vs, bad); err == nil {
			t.Errorf("csim-grid took coordinates %d of %d", bad.Shard, bad.Of)
		}
	}
	if _, _, err := Run(ctx, CsimC, u, vs, Options{Shard: 0, Of: 2}); err == nil {
		t.Error("csim-C took shard coordinates")
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	for _, info := range Engines() {
		if _, _, err := Run(done, info.Name, u, vs, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context: %v", info.Name, err)
		}
	}
}

// TestRegistryShape holds the registry to what its readers assume: the
// names are unique, the served set is the paper's family, csim-grid,
// csim-C, PROOFS and serial, and exactly the concurrent engines read a
// macro plan from the artifact set.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, info := range Engines() {
		if seen[info.Name] {
			t.Errorf("%s registered twice", info.Name)
		}
		seen[info.Name] = true
		if got, ok := ByName(info.Name); !ok || !reflect.DeepEqual(got, info) {
			t.Errorf("ByName(%s) = %+v, %t", info.Name, got, ok)
		}
		plan, _, err := Prepare(iscas.MustGet("s27")).inputs(info)
		if err != nil || (info.Kind == "concurrent") != (plan != nil) {
			t.Errorf("%s: kind %s reads plan %v (%v)", info.Name, info.Kind, plan != nil, err)
		}
	}
	served := Names(func(e Info) bool { return e.Served })
	want := []string{Csim, CsimV, CsimM, CsimMV, CsimGrid, CsimC, PROOFS, Serial}
	if !reflect.DeepEqual(served, want) {
		t.Errorf("served engines %v, want %v", served, want)
	}
	eager, _ := ByName(CsimEager)
	reconv, _ := ByName(CsimReconv)
	if !eager.Config.EagerDrop || !eager.Config.Macros || !reconv.Config.ReconvergentMacros || !reconv.Config.SplitLists {
		t.Errorf("ablation configs: eagerdrop %+v, reconvergent %+v", eager.Config, reconv.Config)
	}
}
