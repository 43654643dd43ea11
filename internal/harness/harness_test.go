package harness

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/vectors"
)

// TestRunEnginesAgree holds the measuring wrapper's part on every
// registered fault engine: the metadata and a measured time, over equal
// detection counts (internal/engine compares the results to the oracle).
func TestRunEnginesAgree(t *testing.T) {
	u, err := Universe("s298", "stuck")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := RandomSet("s298", 100)
	if err != nil {
		t.Fatal(err)
	}
	var detected = -1
	for _, eng := range engine.Names(func(engine.Info) bool { return true }) {
		m, err := Run(eng, u, vs, 0, nil)
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		if m.Engine != eng || m.Faults != u.NumFaults() || m.Patterns != vs.Len() {
			t.Errorf("%s: measurement metadata wrong: %+v", eng, m)
		}
		if detected < 0 {
			detected = m.Detected
		} else if m.Detected != detected {
			t.Errorf("%s detected %d, others %d", eng, m.Detected, detected)
		}
		if m.CPU <= 0 {
			t.Errorf("%s: no CPU time measured", eng)
		}
	}
}

func TestDeterministicSetCachedAndStable(t *testing.T) {
	a, err := DeterministicSet("s298")
	if err != nil {
		t.Fatal(err)
	}
	b, err := DeterministicSet("s298")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("deterministic set not cached")
	}
	if a.Len() == 0 {
		t.Error("empty deterministic set")
	}
}

func TestDeterministicSetLargeUsesConfiguredCount(t *testing.T) {
	vs, err := DeterministicSet("s5378")
	if err != nil {
		t.Fatal(err)
	}
	if vs.Len() != detPatternsLarge["s5378"] {
		t.Errorf("s5378 deterministic set has %d patterns, want %d",
			vs.Len(), detPatternsLarge["s5378"])
	}
}

func TestTableRendering(t *testing.T) {
	tbl := &Table{
		Title:   "Table X",
		Header:  []string{"ckt", "CPU"},
		Caption: "cap",
	}
	tbl.Add("s298", "0.01")
	tbl.Add("s35932", "12.00")
	s := tbl.String()
	for _, want := range []string{"Table X", "ckt", "s35932", "12.00", "cap"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 6 {
		t.Errorf("table has %d lines, want 6:\n%s", len(lines), s)
	}
}

func TestTable2SmallSubset(t *testing.T) {
	tbl, err := Table2([]string{"s27"})
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 || tbl.Rows[0][0] != "s27" {
		t.Errorf("Table2 rows: %v", tbl.Rows)
	}
}

func TestTable6TransitionCoverageBelowStuck(t *testing.T) {
	// The paper's Table 6 observation: stuck-at tests are poor transition
	// tests.
	name := "s344"
	su, err := Universe(name, "stuck")
	if err != nil {
		t.Fatal(err)
	}
	tu, err := Universe(name, "transition")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := DeterministicSet(name)
	if err != nil {
		t.Fatal(err)
	}
	sm, err := Run(engine.CsimMV, su, vs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := Run(engine.CsimMV, tu, vs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tm.Coverage >= sm.Coverage {
		t.Errorf("transition coverage %.2f not below stuck coverage %.2f",
			tm.Coverage, sm.Coverage)
	}
}

func TestRunRejectsTransitionOnPROOFS(t *testing.T) {
	tu, err := Universe("s27", "transition")
	if err != nil {
		t.Fatal(err)
	}
	vs := vectors.Random(tu.Circuit, 5, 1)
	if _, err := Run(engine.PROOFS, tu, vs, 0, nil); err == nil {
		t.Error("PROOFS accepted a transition universe")
	}
}

func TestUnknownCircuit(t *testing.T) {
	if _, err := Universe("nope", "stuck"); err == nil {
		t.Error("unknown circuit accepted")
	}
	if _, err := Universe("s27", "bridging"); err == nil {
		t.Error("unknown fault model accepted")
	}
	if _, err := DeterministicSet("nope"); err == nil {
		t.Error("unknown circuit accepted")
	}
	if _, err := RandomSet("nope", 5); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestRunGridShapes(t *testing.T) {
	u, err := Universe("s298", "stuck")
	if err != nil {
		t.Fatal(err)
	}
	vs, err := RandomSet("s298", 80)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Run(engine.CsimMV, u, vs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The compiled kernel keeps one worker per chunk of 256 faults busy:
	// 431 faults, two.
	for _, shape := range [][2]int{{1, 1}, {2, 2}, {4, 2}} {
		m, err := Run(engine.CsimGrid, u, vs, shape[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if m.Workers != shape[1] || m.Engine != engine.CsimGrid {
			t.Errorf("shape %v: measurement metadata wrong: %+v", shape, m)
		}
		if m.Detected != base.Detected || m.PotOnly != base.PotOnly {
			t.Errorf("shape %v: detected %d/%d pot, csim-MV %d/%d",
				shape, m.Detected, m.PotOnly, base.Detected, base.PotOnly)
		}
	}
	// No budget: one worker, recorded.
	m, err := Run(engine.CsimGrid, u, vs, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Workers != 1 {
		t.Errorf("a grid with no budget did not record one worker: %+v", m)
	}
	if m.Detected != base.Detected {
		t.Errorf("a grid with no budget detected %d, csim-MV %d", m.Detected, base.Detected)
	}
}
