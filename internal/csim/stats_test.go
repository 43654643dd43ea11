package csim

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// setStatFields fills every Stats field with value(fieldIndex), so the
// test covers fields added later automatically.
func setStatFields(value func(i int) int64) Stats {
	var st Stats
	sv := reflect.ValueOf(&st).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetInt(value(i))
	}
	return st
}

// TestMergeStatsCoversEveryField drives the merge over every Stats field:
// Macros keeps the maximum, every other field adds, and — the regression
// this guards — no field comes back zero, which is what a merge that
// forgets a field added after it does.
func TestMergeStatsCoversEveryField(t *testing.T) {
	a := setStatFields(func(i int) int64 { return int64(i + 1) })
	b := setStatFields(func(i int) int64 { return int64(10 * (i + 1)) })
	got := MergeStats(a, b)
	gv, gt := reflect.ValueOf(got), reflect.TypeOf(got)
	for i := 0; i < gv.NumField(); i++ {
		want := int64(11 * (i + 1))
		if gt.Field(i).Name == "Macros" {
			want = int64(10 * (i + 1))
		}
		if v := gv.Field(i).Int(); v != want {
			t.Errorf("field %s merged to %d, want %d", gt.Field(i).Name, v, want)
		}
	}
}

// TestObservedRunMatchesStats runs s27 with the full observability layer
// attached and checks (a) the simulator wrote nothing into the registry
// — its counters are Stats — and (b) the fault lifecycle log saw the
// whole arc — injection through detection and drop — for a detected
// fault.
func TestObservedRunMatchesStats(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckCollapsed(c)
	reg := obs.NewRegistry()
	flog := obs.NewFaultLog(len(u.Faults), nil)
	cfg := MV()
	cfg.Obs = &obs.Observer{Metrics: reg, Faults: flog}

	sim, err := New(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(vectors.Random(c, 64, 7))
	if res.NumDet == 0 {
		t.Fatalf("expected detections on s27")
	}

	if snap := reg.Snapshot(); len(snap) != 0 {
		t.Errorf("the simulator published %d metrics: %+v", len(snap), snap)
	}

	// Fault lifecycle: pick a detected fault and demand its full arc.
	events, _ := flog.Events()
	var target int32 = -1
	for i, d := range res.Detected {
		if d {
			target = int32(i)
			break
		}
	}
	saw := map[obs.FaultEventKind]bool{}
	for _, ev := range events {
		if ev.Fault == target {
			saw[ev.Kind] = true
		}
	}
	for _, kind := range []obs.FaultEventKind{
		obs.FaultInjected, obs.FaultDiverged, obs.FaultVisible,
		obs.FaultDetected, obs.FaultDropped,
	} {
		if !saw[kind] {
			t.Errorf("detected fault %d missing lifecycle event %q (saw %v)", target, kind, saw)
		}
	}
}

// TestObservedRunIsBitIdentical guards the observer against Heisenberg
// effects: attaching the full observability layer must not change a
// single detection.
func TestObservedRunIsBitIdentical(t *testing.T) {
	for _, tc := range testCircuits {
		c := mustParse(t, tc.name, tc.text)
		u := faults.StuckCollapsed(c)
		vs := vectors.Random(c, 48, 3)

		plain, err := New(u, MV())
		if err != nil {
			t.Fatal(err)
		}
		resPlain := plain.Run(vs)

		cfg := MV()
		cfg.Obs = &obs.Observer{
			Metrics: obs.NewRegistry(),
			Faults:  obs.NewFaultLog(len(u.Faults), nil),
		}
		observed, err := New(u, cfg)
		if err != nil {
			t.Fatal(err)
		}
		resObs := observed.Run(vs)

		if diff := resPlain.Diff(resObs); diff != "" {
			t.Fatalf("%s: observability changed the result:\n%s", tc.name, diff)
		}
		if plain.Stats() != observed.Stats() {
			t.Fatalf("%s: observability changed the counters:\n plain %+v\n obs   %+v",
				tc.name, plain.Stats(), observed.Stats())
		}
	}
}
