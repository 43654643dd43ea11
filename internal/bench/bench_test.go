package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
)

// tinyCells is the smallest real workload grid: the genuine s27 plus the
// smallest stand-in, enough to exercise concurrent, serial and compiled
// engines — the last on a pinned budget, so K is fixed — in well under a
// second.
func tinyCells() []Cell {
	return []Cell{
		{Engine: engine.CsimMV, Circuit: "s27", Model: ModelStuck, Vectors: Det()},
		{Engine: engine.Serial, Circuit: "s27", Model: ModelStuck, Vectors: Rand(8)},
		{Engine: engine.CsimGrid, Circuit: "s298", Model: ModelStuck, Vectors: Rand(16), Workers: 2},
	}
}

func tinyRun(t *testing.T) *Report {
	t.Helper()
	rep, err := Run(tinyCells())
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// clone deep-copies a report through its JSON form.
func clone(t *testing.T, r *Report) *Report {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	c, err := ReadReport(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestSuitesResolve holds the quick grid to unique keys, with both
// csim-grid cells on a pinned budget of two.
func TestSuitesResolve(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range Quick() {
		k := c.Key()
		if seen[k] {
			t.Errorf("duplicate quick cell %s", k)
		}
		seen[k] = true
		if c.Engine == engine.CsimGrid && c.Workers != 2 {
			t.Errorf("%s: csim-grid cell without a pinned budget of 2", k)
		}
	}
	if len(seen) != 22 {
		t.Errorf("quick grid has %d cells, want 22", len(seen))
	}
}

// TestCellKeys pins the key spelling.
func TestCellKeys(t *testing.T) {
	c := Cell{Engine: engine.CsimGrid, Circuit: "s298", Model: ModelStuck, Vectors: Rand(100), Workers: 4}
	if got, want := c.Key(), "s298/csim-grid/stuck/rand:100/w4"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	c = Cell{Engine: engine.CsimMV, Circuit: "s27", Model: ModelTransition, Vectors: Det()}
	if got, want := c.Key(), "s27/csim-MV/transition/det"; got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
}

// TestQuickSmoke runs the tiny grid once and checks every cell carries
// its workload, its detections, a wall time and the counters its engine
// publishes.
func TestQuickSmoke(t *testing.T) {
	rep := tinyRun(t)
	if rep.Schema != Schema || len(rep.Cells) != len(tinyCells()) {
		t.Fatalf("schema %q, %d cells", rep.Schema, len(rep.Cells))
	}
	for _, c := range rep.Cells {
		if c.Patterns <= 0 || c.Faults <= 0 || c.Detected <= 0 || c.Wall <= 0 {
			t.Errorf("%s: empty result %+v", c.Key, c)
		}
	}
	grid := rep.Cells[2]
	if grid.K != 2 {
		t.Errorf("%s: K = %d, want 2", grid.Key, grid.K)
	}
	for _, n := range workCounters {
		if _, ok := grid.Counters["csim-grid."+n]; !ok {
			t.Errorf("%s: counter csim-grid.%s not recorded (have %v)", grid.Key, n, grid.Counters)
		}
	}
	if got := grid.Counters["csim-grid.detections"]; got != int64(grid.Detected) {
		t.Errorf("%s: detections counter %d, detected %d", grid.Key, got, grid.Detected)
	}
}

// TestGateFailsOnDoctoredBaseline holds a real run to baselines doctored
// one integer at a time: each must fail the gate and name what moved. A
// baseline that differs only in wall time must pass — wall time is
// never compared, however far a busy host moves it.
func TestGateFailsOnDoctoredBaseline(t *testing.T) {
	cur := tinyRun(t)
	const grid = 2
	for _, tc := range []struct {
		name   string
		doctor func(b *Report)
		want   string // "" means the gate passes
	}{
		{"wall time only", func(b *Report) {
			for i := range b.Cells {
				b.Cells[i].Wall = time.Hour
			}
		}, ""},
		{"counter rose", func(b *Report) { b.Cells[grid].Counters["csim-grid.evals"]-- }, "csim-grid.evals"},
		{"counter fell", func(b *Report) { b.Cells[grid].Counters["csim-grid.passes"]++ }, "csim-grid.passes"},
		{"detected changed", func(b *Report) { b.Cells[0].Detected++ }, "detected"},
		{"pot_only changed", func(b *Report) { b.Cells[0].PotOnly++ }, "pot_only"},
		{"patterns changed", func(b *Report) { b.Cells[1].Patterns++ }, "patterns"},
		{"faults changed", func(b *Report) { b.Cells[1].Faults-- }, "faults"},
		{"K changed", func(b *Report) { b.Cells[grid].K = 1 }, "k 1 → 2"},
		{"counter missing from run", func(b *Report) { b.Cells[grid].Counters["csim-grid.windows"] = 1 }, "csim-grid.windows missing from the run"},
		{"counter missing from baseline", func(b *Report) { delete(b.Cells[grid].Counters, "csim-grid.steps") }, "csim-grid.steps not in the baseline"},
		{"cell missing from run", func(b *Report) {
			b.Cells = append(b.Cells, CellResult{Key: "s27/csim-V/stuck/det"})
		}, "s27/csim-V/stuck/det: cell missing from the run"},
		{"extra cell", func(b *Report) { b.Cells = b.Cells[:grid] }, cur.Cells[grid].Key + ": cell not in the baseline"},
	} {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			base := clone(t, cur)
			tc.doctor(base)
			err := Compare(cur, base)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("gate failed: %v", err)
			case tc.want != "" && err == nil:
				t.Error("gate passed")
			case tc.want != "" && !strings.Contains(err.Error(), tc.want):
				t.Errorf("gate error lacks %q:\n%v", tc.want, err)
			case err != nil && !strings.Contains(err.Error(), "make baseline"):
				t.Errorf("gate error does not say how to refresh the baseline:\n%v", err)
			}
		})
	}
}

// synthetic is a handcrafted report for the format tests.
func synthetic() *Report {
	return &Report{Schema: Schema, Cells: []CellResult{{
		Key: "s298/csim-C/stuck/det", Patterns: 34, Faults: 431, Detected: 174, PotOnly: 2, K: 1,
		Counters: map[string]int64{"csim-C.evals": 16335, "csim-C.passes": 431},
	}}}
}

func TestJSONRoundTrip(t *testing.T) {
	rep := synthetic()
	if got := clone(t, rep); !reflect.DeepEqual(rep, got) {
		t.Errorf("round trip mutated the report:\nout: %+v\nin:  %+v", rep, got)
	}
}

// TestCellResultJSONNames pins the schema's field spelling: renaming a
// JSON key is a schema change and must bump the Schema version. Wall
// time is not part of it.
func TestCellResultJSONNames(t *testing.T) {
	c := synthetic().Cells[0]
	c.Wall = time.Second
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"key":"s298/csim-C/stuck/det","patterns":34,"faults":431,"detected":174,"pot_only":2,"k":1,` +
		`"counters":{"csim-C.evals":16335,"csim-C.passes":431}}`
	if string(b) != want {
		t.Errorf("CellResult JSON\n got %s\nwant %s", b, want)
	}
}

func TestSchemaVersionRejection(t *testing.T) {
	for _, in := range []string{
		`{"schema":"faultsim-bench/v1","calibration_ns":1,"cells":[]}`,
		`{"schema":"faultsim-bench/v999","cells":[]}`,
		`{"cells":[]}`,
		`not json`,
	} {
		if _, err := ReadReport(strings.NewReader(in)); err == nil {
			t.Errorf("accepted %s", in)
		}
	}
}
