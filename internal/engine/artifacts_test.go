package engine

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/iscas/iscastest"
	"repro/internal/macro"
	"repro/internal/vectors"
)

// TestArtifactsPlanFollowsConfig: the plan a set hands an engine is the
// one its Config selects — reconvergent for csim-MV-reconvergent,
// fanout-free for csim-MV and csim-M (one shared plan), trivial for
// csim-V — each built once.
func TestArtifactsPlanFollowsConfig(t *testing.T) {
	c := iscastest.MustGet("s298")
	ffr, err := macro.Extract(c, macro.DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	reconv, err := macro.ExtractReconvergent(c, macro.DefaultMaxInputs)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(ffr.Owner, reconv.Owner) {
		t.Fatal("s298's reconvergent and fanout-free plans coincide; the test cannot tell them apart")
	}
	a := Prepare(c)
	plan := func(name string) *macro.Plan {
		t.Helper()
		info, _ := ByName(name)
		p, err := a.Plan(info.Config)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct {
		name string
		want *macro.Plan
	}{{CsimReconv, reconv}, {CsimMV, ffr}, {CsimV, macro.Trivial(c)}} {
		if got := plan(tc.name); !reflect.DeepEqual(got.Owner, tc.want.Owner) {
			t.Errorf("%s: plan of %d macros, want %d", tc.name, got.NumMacros(), tc.want.NumMacros())
		}
	}
	if plan(CsimM) != plan(CsimMV) || plan(CsimReconv) != plan(CsimReconv) {
		t.Error("one extraction setting built two plans")
	}
}

// TestRunRejectsForeignArtifacts: a set prepared from another circuit is
// an error, as a plan over another circuit is to csim.New.
func TestRunRejectsForeignArtifacts(t *testing.T) {
	c := iscastest.MustGet("s27")
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 4, 1)
	for _, name := range []string{CsimMV, CsimC, Serial} {
		_, _, err := Run(context.Background(), name, u, vs, Options{Artifacts: Prepare(iscastest.MustGet("s298"))})
		if err == nil || !strings.Contains(err.Error(), "s298") {
			t.Errorf("%s on another circuit's set: %v", name, err)
		}
	}
}

// TestSharedArtifactsSameWork: every concurrent engine, run at once on
// one shared set, does the same work and detects the same faults as on a
// set of its own.
func TestSharedArtifactsSameWork(t *testing.T) {
	ctx := context.Background()
	c := iscastest.MustGet("s298")
	shared := Prepare(c)
	u, err := shared.Universe("stuck")
	if err != nil {
		t.Fatal(err)
	}
	vs := vectors.Random(c, 70, 5)
	names := Names(func(e Info) bool { return e.Kind == "concurrent" })
	type run struct {
		res *faults.Result
		st  csim.Stats
		err error
	}
	got := make([]run, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			r := &got[i]
			r.res, r.st, r.err = Run(ctx, name, u, vs, Options{Artifacts: shared})
		}(i, name)
	}
	wg.Wait()
	for i, name := range names {
		want, wantSt, err := Run(ctx, name, u, vs, Options{})
		if err != nil || got[i].err != nil {
			t.Fatalf("%s: %v / %v", name, err, got[i].err)
		}
		if got[i].st != wantSt {
			t.Errorf("%s: stats on a shared set %+v, on its own %+v", name, got[i].st, wantSt)
		}
		if d := want.Diff(got[i].res); d != "" {
			t.Errorf("%s: detections differ on a shared set:\n%s", name, d)
		}
	}
}
