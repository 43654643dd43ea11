package serial

import (
	"context"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

func mustParse(t *testing.T, name, text string) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString(name, text)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func mustVecs(t *testing.T, text string, n int) *vectors.Set {
	t.Helper()
	v, err := vectors.ParseString(text, n)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestBufferStuckAt(t *testing.T) {
	c := mustParse(t, "buf", "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
	u := faults.StuckAll(c)
	vs := mustVecs(t, "1\n0\n", 1)
	res, _ := Simulate(context.Background(), u, vs)
	// Every fault on the a->z line is detected: SA0s by vector 1,
	// SA1s by vector 0.
	for i, f := range u.Faults {
		if !res.Detected[i] {
			t.Errorf("fault %s undetected", f.Name(c))
			continue
		}
		wantAt := int32(0)
		if f.Kind == faults.SA1 {
			wantAt = 1
		}
		if res.DetectedAt[i] != wantAt {
			t.Errorf("fault %s detected at %d, want %d", f.Name(c), res.DetectedAt[i], wantAt)
		}
	}
	if res.Coverage() != 1.0 {
		t.Errorf("coverage = %v, want 1", res.Coverage())
	}
}

func TestAndGateStuckAt(t *testing.T) {
	c := mustParse(t, "and", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
	u := faults.StuckAll(c)
	// 11 detects all SA0 on the cone; 01 detects a-line SA1; 10 b-line SA1.
	vs := mustVecs(t, "11\n01\n10\n", 2)
	res, _ := Simulate(context.Background(), u, vs)
	if res.Coverage() != 1.0 {
		t.Fatalf("coverage = %v, want 1\nundetected:\n%s", res.Coverage(), undetected(res))
	}
	// z output SA1 requires an output 0: first such vector is 01 (t=1).
	for i, f := range u.Faults {
		if f.Gate == c.MustByName("z") && f.Pin == faults.OutPin && f.Kind == faults.SA1 {
			if res.DetectedAt[i] != 1 {
				t.Errorf("z/O SA1 detected at %d, want 1", res.DetectedAt[i])
			}
		}
	}
}

func undetected(r *faults.Result) string {
	out := ""
	for i, d := range r.Detected {
		if !d {
			out += r.Universe.Faults[i].Name(r.Universe.Circuit) + "\n"
		}
	}
	return out
}

func TestSequentialStuckAt(t *testing.T) {
	// q latches a; PO observes q one cycle later.
	c := mustParse(t, "ff", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = BUFF(q)\n")
	u := faults.StuckAll(c)
	vs := mustVecs(t, "1\n0\n1\n", 1)
	res, _ := Simulate(context.Background(), u, vs)
	// Detections are delayed one cycle through the FF: SA0 on the a line
	// needs a=1 latched then observed, i.e. cycle 1 at the earliest.
	for i, f := range u.Faults {
		if f.Kind == faults.SA0 && !res.Detected[i] {
			t.Errorf("SA0 fault %s undetected", f.Name(c))
		}
		if f.Kind == faults.SA0 && res.Detected[i] && res.DetectedAt[i] < 1 {
			t.Errorf("fault %s detected at %d, before FF could expose it",
				f.Name(c), res.DetectedAt[i])
		}
	}
	if res.Coverage() != 1.0 {
		t.Errorf("coverage = %v, want 1\n%s", res.Coverage(), undetected(res))
	}
}

func TestStuckOutputOnDFFForcedFromStart(t *testing.T) {
	c := mustParse(t, "ff", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = BUFF(q)\n")
	u := faults.StuckAll(c)
	var q1 int32 = -1
	for i, f := range u.Faults {
		if f.Gate == c.MustByName("q") && f.Pin == faults.OutPin && f.Kind == faults.SA1 {
			q1 = int32(i)
		}
	}
	// Good machine outputs X at cycle 0 (FF uninitialized), so the forced 1
	// cannot be detected at cycle 0; a=0 latched for cycle 1 exposes it.
	vs := mustVecs(t, "0\n0\n", 1)
	res, _ := Simulate(context.Background(), u, vs)
	if !res.Detected[q1] || res.DetectedAt[q1] != 1 {
		t.Errorf("q/O SA1: detected=%v at %d, want detection at 1",
			res.Detected[q1], res.DetectedAt[q1])
	}
}

func TestTransitionBufferSTR(t *testing.T) {
	c := mustParse(t, "buf", "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
	u := faults.Transition(c)
	var str, stf int32 = -1, -1
	for i, f := range u.Faults {
		if f.Gate == c.MustByName("z") && f.Pin == 0 {
			if f.Kind == faults.STR {
				str = int32(i)
			} else {
				stf = int32(i)
			}
		}
	}
	// 0 then 1: a rising edge the STR fault delays past the sample.
	res, _ := Simulate(context.Background(), u, mustVecs(t, "0\n1\n", 1))
	if !res.Detected[str] || res.DetectedAt[str] != 1 {
		t.Errorf("STR: detected=%v at %d, want at 1", res.Detected[str], res.DetectedAt[str])
	}
	if res.Detected[stf] {
		t.Error("STF detected by a rising-only sequence")
	}
	// 1 then 0 catches STF, not STR.
	res, _ = Simulate(context.Background(), u, mustVecs(t, "1\n0\n", 1))
	if !res.Detected[stf] || res.DetectedAt[stf] != 1 {
		t.Errorf("STF: detected=%v at %d, want at 1", res.Detected[stf], res.DetectedAt[stf])
	}
	if res.Detected[str] {
		t.Error("STR detected by a falling-only sequence")
	}
}

func TestTransitionThroughFF(t *testing.T) {
	c := mustParse(t, "ff", "INPUT(a)\nOUTPUT(z)\nq = DFF(a)\nz = BUFF(q)\n")
	u := faults.Transition(c)
	var strQ int32 = -1
	for i, f := range u.Faults {
		if f.Gate == c.MustByName("q") && f.Kind == faults.STR {
			strQ = int32(i)
		}
	}
	// Cycle 0: a=0, D site sees FV(X,0)=0, latch 0.
	// Cycle 1: a=1, 0->1 at the D pin is delayed: FV(0,1)=0, latch 0;
	//          good latches 1.
	// Cycle 2: good z = 1, faulty z = 0 -> detected.
	res, _ := Simulate(context.Background(), u, mustVecs(t, "0\n1\n1\n", 1))
	if !res.Detected[strQ] || res.DetectedAt[strQ] != 2 {
		t.Errorf("STR at FF D pin: detected=%v at %d, want at 2",
			res.Detected[strQ], res.DetectedAt[strQ])
	}
}

func TestTransitionNotDetectedWithoutTransition(t *testing.T) {
	c := mustParse(t, "buf", "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
	u := faults.Transition(c)
	// Constant input: no transitions, no detections.
	res, _ := Simulate(context.Background(), u, mustVecs(t, "1\n1\n1\n", 1))
	if res.NumDet != 0 {
		t.Errorf("constant input detected %d transition faults", res.NumDet)
	}
}

func TestSimulateDeterministic(t *testing.T) {
	c := mustParse(t, "and", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
	u := faults.StuckCollapsed(c)
	vs := vectors.Random(c, 20, 5)
	a, _ := Simulate(context.Background(), u, vs)
	b, _ := Simulate(context.Background(), u, vs)
	if d := a.Diff(b); d != "" {
		t.Errorf("nondeterministic results:\n%s", d)
	}
}

// TestSimulateStopsOnCancel: a cancelled context ends the run before the
// next fault with the context's error.
func TestSimulateStopsOnCancel(t *testing.T) {
	c := mustParse(t, "buf", "INPUT(a)\nOUTPUT(z)\nz = BUFF(a)\n")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := Simulate(ctx, faults.StuckCollapsed(c), mustVecs(t, "1\n", 1)); err != context.Canceled || res != nil {
		t.Errorf("Simulate on a cancelled context = %v, %v", res, err)
	}
}
