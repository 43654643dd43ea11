package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

func needTwoCPUs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < 2 {
		t.Skip("the benchmark needs 2 CPUs")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload traced, with a 1 s window on small
// circuits, and checks that every named metric comes out with its unit and
// a finite value.
func TestSmoke(t *testing.T) {
	needTwoCPUs(t)
	for _, w := range workloads {
		dir := t.TempDir()
		rep, err := run(context.Background(), runConfig{
			workload: w.small(), seed: 1, seconds: 1, trace: true, dir: dir,
			started: time.Now(), setupFor: 100 * time.Millisecond, known: map[string]counts{},
		})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("%s: %d of %d jobs failed", w.Name, rep.Failed, rep.Attempted)
		}
		if w.wantPlan != "" && rep.Plan != w.wantPlan {
			t.Errorf("%s: plan %q, want %q", w.Name, rep.Plan, w.wantPlan)
		}
		for _, set := range []struct {
			defs []metricDef
			got  map[string]value
		}{{endToEnd, rep.EndToEnd}, {perLayer, rep.PerLayer}} {
			if len(set.got) != len(set.defs) {
				t.Errorf("%s: %d metrics emitted, %d defined", w.Name, len(set.got), len(set.defs))
			}
			for _, m := range set.defs {
				v, ok := set.got[m.Name]
				switch {
				case !ok:
					t.Errorf("%s: %s not emitted", w.Name, m.Name)
				case v.Unit != m.Unit || v.Unit == "":
					t.Errorf("%s: %s has unit %q, want %q", w.Name, m.Name, v.Unit, m.Unit)
				case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, v.Value)
				}
				if !nameRE.MatchString(m.Name) {
					t.Errorf("metric name %q is outside the name grammar", m.Name)
				}
			}
		}
		for _, m := range endToEnd {
			if rep.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: end-to-end %s = %v, must never be 0", w.Name, m.Name, rep.EndToEnd[m.Name].Value)
			}
		}
		want := 0.0
		if w.hitShare == 1 {
			want = 1
		}
		if got := rep.PerLayer["service.cache_hit_share"].Value; got != want {
			t.Errorf("%s: service.cache_hit_share = %v, want %v", w.Name, got, want)
		}
		if _, err := os.Stat(filepath.Join(dir, "out", "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}
}

// TestWrongExpectedCountFails plants a wrong oracle count and expects the
// jobs on that input to be reported as failures.
func TestWrongExpectedCountFails(t *testing.T) {
	needTwoCPUs(t)
	w, _ := findWorkload("svc-tiny")
	w = w.small()
	ins, err := w.makeInputs(1)
	if err != nil {
		t.Fatal(err)
	}
	right, err := secondEngine(&ins[0])
	if err != nil {
		t.Fatal(err)
	}
	wrong := right
	wrong.Detected++
	rep, err := run(context.Background(), runConfig{
		workload: w, seed: 1, seconds: 0.2, dir: t.TempDir(), started: time.Now(), setupFor: 100 * time.Millisecond,
		known: map[string]counts{ins[0].key: wrong},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Failed == 0 || rep.Failed == rep.Attempted || rep.FailedShare <= 0 {
		t.Errorf("failed %d of %d (share %v): want only the jobs on the mis-stated input to fail", rep.Failed, rep.Attempted, rep.FailedShare)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workload and metric
// lists equal to the code's.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []workload  `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(doc.Paths, []string{"benchmark"}) {
		t.Errorf("paths = %v", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, doc.Workloads[i].Name, doc.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", doc.PerLayer, perLayer)
	}
}

// TestExpectedCoversCommittedSeeds checks that expected.json holds counts
// for every input of run seeds 1 and 2.
func TestExpectedCoversCommittedSeeds(t *testing.T) {
	known, err := loadExpected(".")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, seed := range []int64{1, 2} {
			ins, err := w.makeInputs(seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, in := range ins {
				if c, ok := known[in.key]; !ok || c.Faults == 0 || c.Patterns != w.vectors {
					t.Errorf("%s seed %d: expected.json has %+v for %s", w.Name, seed, c, in.key)
				}
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4)
	if q1, _, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of 3 = %v .. %v, want 1 .. 4", q1, q3)
	}
}

// TestCheckRepeat exercises the three verdicts on synthetic sets.
func TestCheckRepeat(t *testing.T) {
	set := func(scale map[string]float64, jitter float64) *setFile {
		var s setFile
		for _, w := range workloads {
			for i := 0; i < 4; i++ {
				r := &report{Workload: w.Name, Attempted: 1, EndToEnd: map[string]value{}}
				for _, m := range endToEnd {
					f := 1.0
					if v, ok := scale[w.Name+"/"+m.Name]; ok {
						f = v
					}
					r.EndToEnd[m.Name] = value{100 * f * (1 + jitter*float64(i)), m.Unit}
				}
				s.Runs = append(s.Runs, r)
			}
		}
		return &s
	}
	write := func(s *setFile) string {
		path := filepath.Join(t.TempDir(), "set.json")
		for _, r := range s.Runs {
			if err := appendReport(path, r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	base := write(set(nil, 0.001))
	for _, tc := range []struct {
		name    string
		other   *setFile
		differ  bool
		verdict string
	}{
		{"same", set(nil, 0.001), false, "agree"},
		{"slower", set(map[string]float64{"fleet/job_ms_p50": 1.5}, 0.001), true, "differ"},
		{"noisy", set(map[string]float64{"fleet/job_ms_p50": 1.5}, 0.2), false, "unresolved"},
	} {
		var out bytes.Buffer
		differ, err := checkRepeat(&out, base, write(tc.other))
		if err != nil {
			t.Fatal(err)
		}
		if differ != tc.differ || !strings.Contains(out.String(), tc.verdict) {
			t.Errorf("%s: differ=%t, want %t with a %q row:\n%s", tc.name, differ, tc.differ, tc.verdict, out.String())
		}
	}
}
