package csim

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// setStatFields fills every Stats field through the tag table with
// value(fieldIndex), so tests cover fields added later automatically.
func setStatFields(value func(i int) int64) Stats {
	var st Stats
	sv := reflect.ValueOf(&st).Elem()
	for _, f := range statFields() {
		sv.Field(f.index).SetInt(value(f.index))
	}
	return st
}

// TestMergeStatsCoversEveryField drives the generic merge over every
// Stats field: `sum` fields add, `max` fields keep the maximum, and — the
// regression the tag table exists for — no field comes back zero, which
// is what the old field-by-field summing did to fields added after it.
func TestMergeStatsCoversEveryField(t *testing.T) {
	a := setStatFields(func(i int) int64 { return int64(i + 1) })
	b := setStatFields(func(i int) int64 { return int64(10 * (i + 1)) })
	got := MergeStats(a, b)
	gv := reflect.ValueOf(got)
	for _, f := range statFields() {
		want := int64(11 * (f.index + 1)) // sum
		if f.policy == mergeMax {
			want = int64(10 * (f.index + 1))
		}
		if v := gv.Field(f.index).Int(); v != want {
			t.Errorf("field %s merged to %d, want %d",
				reflect.TypeOf(got).Field(f.index).Name, v, want)
		}
		if gv.Field(f.index).Int() == 0 {
			t.Errorf("field %s silently dropped by MergeStats",
				reflect.TypeOf(got).Field(f.index).Name)
		}
	}
}

// TestStatsTagTableComplete asserts the tag table spans the whole struct:
// statFields panics on an untagged field, and every field must be listed
// exactly once.
func TestStatsTagTableComplete(t *testing.T) {
	fields := statFields()
	if want := reflect.TypeOf(Stats{}).NumField(); len(fields) != want {
		t.Fatalf("tag table has %d entries, Stats has %d fields", len(fields), want)
	}
	seen := map[int]bool{}
	names := map[string]bool{}
	for _, f := range fields {
		if seen[f.index] || names[f.name] {
			t.Fatalf("duplicate tag table entry: %+v", f)
		}
		seen[f.index] = true
		names[f.name] = true
	}
}

// checkPublished compares every Stats field with its metric under prefix
// in reg's snapshot.
func checkPublished(t *testing.T, reg *obs.Registry, prefix string, want Stats) {
	t.Helper()
	wv := reflect.ValueOf(want)
	for _, f := range statFields() {
		p, ok := reg.Get(prefix + f.name)
		if !ok {
			t.Errorf("metric %s%s not published", prefix, f.name)
			continue
		}
		if v := wv.Field(f.index).Int(); p.Value != v {
			t.Errorf("metric %s%s = %d, want %d", prefix, f.name, p.Value, v)
		}
	}
}

// TestPublishStatsRoundTrip checks that publication puts every field of
// the struct into the registry exactly, and that a nil registry is a
// no-op.
func TestPublishStatsRoundTrip(t *testing.T) {
	st := setStatFields(func(i int) int64 { return int64(100 + i) })
	reg := obs.NewRegistry()
	PublishStats(reg, "x.", st)
	checkPublished(t, reg, "x.", st)
	PublishStats(nil, "x.", st)
}

// TestObservedRunMatchesStats runs s27 with the full observability layer
// attached and checks (a) the registry agrees with the Stats facade,
// (b) the macro-extract phase span was recorded, and (c) the fault
// lifecycle log saw the whole arc — injection through detection and drop
// — for a detected fault.
func TestObservedRunMatchesStats(t *testing.T) {
	c := mustParse(t, "s27", s27Bench)
	u := faults.StuckCollapsed(c)
	reg := obs.NewRegistry()
	tr := obs.NewTracer(reg)
	flog := obs.NewFaultLog(len(u.Faults), nil, 0)
	cfg := MV()
	cfg.Obs = &obs.Observer{Metrics: reg, Tracer: tr, Faults: flog}

	sim, err := New(u, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run(vectors.Random(c, 64, 7))
	if res.NumDet == 0 {
		t.Fatalf("expected detections on s27")
	}

	// Registry mirrors the Stats facade after the last cycle's flush.
	st := sim.Stats()
	checkPublished(t, reg, DefaultObsPrefix, st)
	if p, ok := reg.Get(DefaultObsPrefix + "cycles"); !ok || p.Value != 64 {
		t.Fatalf("cycles counter = %+v, want 64", p)
	}
	if p, ok := reg.Get(DefaultObsPrefix + "cycle_ns"); !ok || p.Count != 64 {
		t.Fatalf("cycle_ns histogram count = %+v, want 64", p)
	}
	if p, ok := reg.Get(DefaultObsPrefix + "faults_live"); !ok ||
		p.Value != int64(len(u.Faults)-st.Detections) {
		t.Fatalf("faults_live = %+v, want %d", p, len(u.Faults)-st.Detections)
	}

	// Phase spans: macro extraction inside New, duration counter in the
	// registry.
	if durs := tr.PhaseDurations(); durs["macro-extract"] <= 0 {
		t.Fatalf("macro-extract span missing: %v", durs)
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
			Tracer:  obs.NewTracer(nil),
			Faults:  obs.NewFaultLog(len(u.Faults), nil, 0),
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
