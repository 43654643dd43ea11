package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/iscas/iscastest"
	"repro/internal/obs"
	"repro/internal/serial"
	"repro/internal/vectors"
)

// TestEveryEngineMatchesSerial runs every registered name through Run on
// s27 and s298, both fault models where the engine takes them, and
// holds the result to the serial oracle: detections, first-detection
// vectors and potential detections. It is the one place the engines
// are compared as a set; the other surfaces (harness, service, CLI) test
// what they add on top of Run.
func TestEveryEngineMatchesSerial(t *testing.T) {
	ctx := context.Background()
	for _, circuit := range []string{"s27", "s298"} {
		c := iscastest.MustGet(circuit)
		vs := vectors.Random(c, 70, 5)
		for _, u := range []*faults.Universe{faults.StuckCollapsed(c), faults.Transition(c)} {
			transition := !u.Faults[0].Kind.Stuck()
			want, err := serial.Simulate(ctx, u, vs)
			if err != nil {
				t.Fatal(err)
			}
			for _, info := range registry {
				tag := circuit + "/" + info.Name
				if transition {
					tag += "/transition"
				}
				got, _, err := Run(ctx, info.Name, u, vs, Options{Workers: 2})
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
				if d := want.Diff(got); d != "" {
					t.Errorf("%s: results differ from serial:\n%s", tag, d)
				}
			}
		}
	}
}

// TestDegenerateJobs: no faults, one fault and one vector go through
// every engine and a pinned shard of each compiled engine, and match
// the oracle.
func TestDegenerateJobs(t *testing.T) {
	ctx := context.Background()
	c := iscastest.MustGet("s27")
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
			} else if d := want.Diff(got); d != "" {
				t.Errorf("%s/%s differs from serial:\n%s", tc.name, tag, d)
			}
		}
		for _, info := range registry {
			run(info.Name, info.Name, Options{Workers: 3})
		}
		run("csim-C shard 0 of 1", CsimC, Options{Shard: 0, Of: 1})
		run("csim-grid shard 0 of 1", CsimGrid, Options{Shard: 0, Of: 1})
	}
}

// TestRunWritesNoMetrics: a run's counters are the Stats Run returns,
// so every registered engine, and a pinned shard of each compiled
// engine, leaves the registry it is handed empty.
func TestRunWritesNoMetrics(t *testing.T) {
	c := iscastest.MustGet("s298")
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 70, 5)
	run := func(tag, name string, opt Options) {
		reg := obs.NewRegistry()
		opt.Obs = &obs.Observer{Metrics: reg}
		if _, _, err := Run(context.Background(), name, u, vs, opt); err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		if snap := reg.Snapshot(); len(snap) != 0 {
			t.Errorf("%s published %d metrics: %+v", tag, len(snap), snap)
		}
	}
	for _, info := range registry {
		run(info.Name, info.Name, Options{Workers: 2})
	}
	run("csim-C shard 1 of 2", CsimC, Options{Shard: 1, Of: 2})
	run("csim-grid shard 1 of 2", CsimGrid, Options{Shard: 1, Of: 2})
}

// TestRunRejects pins Run's input checks: an unknown name (the error
// lists the registry), a vector set of the wrong width, coordinates on
// an engine that takes none, coordinates out of range, and a context
// that is already done, on every engine.
func TestRunRejects(t *testing.T) {
	ctx := context.Background()
	c := iscastest.MustGet("s27")
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 4, 1)
	if _, _, err := Run(ctx, "csim-X", u, vs, Options{}); err == nil || !strings.Contains(err.Error(), CsimMV) {
		t.Errorf("unknown engine: %v", err)
	}
	wide := &vectors.Set{NumPIs: vs.NumPIs + 1}
	if _, _, err := Run(ctx, CsimMV, u, wide, Options{}); err == nil {
		t.Error("a vector set one input too wide was accepted")
	}
	for _, name := range []string{CsimC, CsimGrid} {
		for _, bad := range []Options{{Shard: 0, Of: -1}, {Shard: -1, Of: 2}, {Shard: 2, Of: 2}, {Shard: 1}} {
			if _, _, err := Run(ctx, name, u, vs, bad); err == nil {
				t.Errorf("%s took coordinates %d of %d", name, bad.Shard, bad.Of)
			}
		}
	}
	for _, info := range registry {
		if _, _, err := Run(ctx, info.Name, u, vs, Options{Shard: 0, Of: 2}); (err == nil) != (info.Kind == "compiled") {
			t.Errorf("%s on shard 0 of 2: %v", info.Name, err)
		}
	}
	done, cancel := context.WithCancel(ctx)
	cancel()
	for _, info := range registry {
		if _, _, err := Run(done, info.Name, u, vs, Options{}); !errors.Is(err, context.Canceled) {
			t.Errorf("%s on a cancelled context: %v", info.Name, err)
		}
	}
}

// TestCompiledRunRecordsDecide: a job on either compiled engine, whole
// or pinned to a shard, records its worker count as a decide event
// before the cancellation check, so a job stopped before its engine
// starts still carries it; a budget of 0 is one processor, and a shard
// counts its own faults.
func TestCompiledRunRecordsDecide(t *testing.T) {
	c := iscastest.MustGet("s1494")
	u := &faults.Universe{Circuit: c, Faults: faults.StuckCollapsed(c).Faults[:700]}
	vs := vectors.Random(c, 16, 1)
	done, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range []string{CsimC, CsimGrid} {
		for _, tc := range []struct {
			opt  Options
			want string
		}{
			{Options{Workers: 4}, "plan 3x1 (procs=4 faults=700: "},
			{Options{}, "plan 1x1 (procs=1 faults=700: "},
			{Options{Workers: 4, Shard: 1, Of: 2}, "plan 2x1 (procs=4 faults=350: "},
		} {
			ob := &obs.Observer{Flight: obs.NewFlightRecorder()}
			tc.opt.Obs = ob
			if _, _, err := Run(done, name, u, vs, tc.opt); !errors.Is(err, context.Canceled) {
				t.Errorf("%s %+v on a cancelled context: %v", name, tc.opt, err)
			}
			evs := ob.Flight.Events()
			if len(evs) != 1 || evs[0].Kind != "decide" || !strings.HasPrefix(evs[0].Detail, tc.want) {
				t.Errorf("%s workers %d: events %+v, want one decide %q", name, tc.opt.Workers, evs, tc.want)
			}
		}
	}

	// A whole job's shard_start names the chunk its worker pulls: 256
	// faults, or the whole universe when it is smaller.
	for _, tc := range []struct {
		faults, workers, chunk int
	}{{700, 3, 256}, {100, 1, 100}} {
		u := &faults.Universe{Circuit: c, Faults: u.Faults[:tc.faults]}
		ob := &obs.Observer{Flight: obs.NewFlightRecorder()}
		if _, _, err := Run(context.Background(), CsimC, u, vs, Options{Workers: 4, Obs: ob}); err != nil {
			t.Fatal(err)
		}
		var starts []string
		for _, ev := range ob.Flight.Events() {
			if ev.Kind == "shard_start" {
				starts = append(starts, ev.Detail)
			}
		}
		if len(starts) != tc.workers {
			t.Fatalf("%d faults: shard_start events %q, want %d", tc.faults, starts, tc.workers)
		}
		for _, d := range starts {
			var k int
			if _, err := fmt.Sscanf(d, "csim-C shard %d: ", &k); err != nil ||
				d != fmt.Sprintf("csim-C shard %d: compiled worker pulling chunks of %d faults", k, tc.chunk) {
				t.Errorf("%d faults: shard_start %q, want chunks of %d faults", tc.faults, d, tc.chunk)
			}
		}
	}
}

// TestRegistryShape holds the registry to what its readers assume: the
// names are unique, the served set is the paper's family, csim-grid,
// csim-C, PROOFS and serial, and exactly the concurrent engines read a
// macro plan from the artifact set.
func TestRegistryShape(t *testing.T) {
	seen := map[string]bool{}
	for _, info := range registry {
		if seen[info.Name] {
			t.Errorf("%s registered twice", info.Name)
		}
		seen[info.Name] = true
		if got, ok := ByName(info.Name); !ok || !reflect.DeepEqual(got, info) {
			t.Errorf("ByName(%s) = %+v, %t", info.Name, got, ok)
		}
		plan, _, err := Prepare(iscastest.MustGet("s27")).inputs(info)
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

// engineRow matches a three-column markdown row with a backticked first
// cell: the README engine table's row shape (every other README table
// has two columns).
var engineRow = regexp.MustCompile("^\\|\\s*(`[^`]+`)\\s*\\|([^|]*)\\|([^|]*)\\|\\s*$")

// TestReadmeEngineTable holds README.md's engine table to the registry:
// the same rows in the same order, each with the registry's kind and
// description. On drift it prints the registry's rows ready to paste.
func TestReadmeEngineTable(t *testing.T) {
	text, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, line := range strings.Split(string(text), "\n") {
		if m := engineRow.FindStringSubmatch(line); m != nil {
			got = append(got, fmt.Sprintf("| %s | %s | %s |", m[1], strings.TrimSpace(m[2]), strings.TrimSpace(m[3])))
		}
	}
	for _, e := range registry {
		want = append(want, fmt.Sprintf("| `%s` | %s | %s |", e.Name, e.Kind, e.Description))
	}
	row := func(rows []string, i int) string {
		if i < len(rows) {
			return rows[i]
		}
		return "(none)"
	}
	for i := range max(len(got), len(want)) {
		if g, w := row(got, i), row(want, i); g != w {
			t.Fatalf("README.md's engine table disagrees with the registry at row %d:\n  readme:   %s\n  registry: %s\n"+
				"the registry's rows:\n| Engine | Kind | What it is |\n|---|---|---|\n%s", i+1, g, w, strings.Join(want, "\n"))
		}
	}
}
