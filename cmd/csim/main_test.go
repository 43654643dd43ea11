package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/compiled"
	"repro/internal/engine"
	"repro/internal/obs"
)

// TestMain lets a test run this binary as the csim command.
func TestMain(m *testing.M) {
	if os.Getenv("CSIM_TEST_RUN_MAIN") != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestRemovedSelectionsExit2: an engine name that is not (or no longer)
// accepted and a flag that is no longer defined both end the command
// with status 2 and a usage line.
func TestRemovedSelectionsExit2(t *testing.T) {
	for _, tc := range []struct{ arg, val, wantIn string }{
		{"-engine", "csim-X", "usage: -engine csim|"},
		{"-engine", "csim-" + "P", "usage: -engine csim|csim-V|csim-M|csim-MV|csim-MV-eagerdrop|csim-MV-reconvergent|csim-grid|csim-C|PROOFS|serial"},
		{"-shards", "2x2", "flag provided but not defined: -shards"},
	} {
		out, err := runCsim("-suite", "s27", "-random", "4", tc.arg, tc.val)
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s %s: %v, want exit status 2\n%s", tc.arg, tc.val, err, out)
		}
		if !strings.Contains(string(out), tc.wantIn) {
			t.Errorf("%s %s: output lacks %q:\n%s", tc.arg, tc.val, tc.wantIn, out)
		}
	}
}

// TestWorkersFlagReachesTheCompiledKernel: -engine csim-C -workers K
// runs K workers, as a service job with "workers": K does; without the
// flag either compiled engine runs on the CPU count, one worker per 256
// faults at most (s298 has 431).
func TestWorkersFlagReachesTheCompiledKernel(t *testing.T) {
	byDefault := fmt.Sprintf("workers:   %d\n", compiled.Workers(runtime.NumCPU(), 431))
	for _, tc := range []struct {
		args   []string
		wantIn string
	}{
		{[]string{"-engine", "csim-C", "-workers", "2"}, "engine:    csim-C\nworkers:   2\n"},
		{[]string{"-engine", "csim-C", "-workers", "1"}, "engine:    csim-C\nworkers:   1\n"},
		{[]string{"-engine", "csim-C"}, "engine:    csim-C\n" + byDefault},
		{[]string{"-engine", "csim-grid"}, "engine:    csim-grid\n" + byDefault},
		{[]string{"-engine", "csim-grid", "-workers", "2"}, "engine:    csim-grid\nworkers:   2\n"},
	} {
		out, err := runCsim(append([]string{"-suite", "s298", "-random", "64"}, tc.args...)...)
		if err != nil || !strings.Contains(string(out), tc.wantIn) {
			t.Errorf("%v: %v, output lacks %q:\n%s", tc.args, err, tc.wantIn, out)
		}
	}
}

// TestCheckMode: -check verifies a bundled circuit's universe and macro
// plans under each fault model and exits 0 on its OK line; a -circuit
// file with a combinational loop exits 1 on the loader's diagnostic.
func TestCheckMode(t *testing.T) {
	for _, model := range engine.Models {
		out, err := runCsim("-suite", "s1494", "-faults", model, "-check")
		if want := "check:     s1494 OK ("; err != nil || !strings.Contains(string(out), want) || !strings.Contains(string(out), "["+model+"]") {
			t.Errorf("-check -faults %s: %v, output lacks %q:\n%s", model, err, want, out)
		}
	}
	loop := filepath.Join(t.TempDir(), "loop.bench")
	if err := os.WriteFile(loop, []byte("INPUT(a)\nOUTPUT(z)\nx = AND(a, y)\ny = NOT(x)\nz = BUF(y)\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runCsim("-circuit", loop, "-check")
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 || !strings.Contains(string(out), `combinational cycle through gate "x"`) {
		t.Errorf("-check on a combinational loop: %v, want exit status 1 and the cycle diagnostic:\n%s", err, out)
	}
}

// TestTraceOutWritesFlightRecord: -trace-out writes the run's flight
// record as csimd's /debug serves a job's — parse and collapse, then for
// a compiled run the engine's decide, one shard_start/shard_finish pair
// per worker and merge, and finish last.
func TestTraceOutWritesFlightRecord(t *testing.T) {
	const workers = 2
	flight := func(t *testing.T, args ...string) []obs.FlightEvent {
		t.Helper()
		path := filepath.Join(t.TempDir(), "flight.json")
		out, err := runCsim(append([]string{"-suite", "s1494", "-random", "64", "-trace-out", path}, args...)...)
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Events  []obs.FlightEvent `json:"events"`
			Dropped *int64            `json:"dropped_events"`
		}
		if err := json.Unmarshal(b, &doc); err != nil || doc.Dropped == nil || *doc.Dropped != 0 {
			t.Fatalf("%v: flight record %v, dropped_events %v:\n%s", args, err, doc.Dropped, b)
		}
		return doc.Events
	}
	kinds := func(evs []obs.FlightEvent) []string {
		var ks []string
		for _, ev := range evs {
			ks = append(ks, ev.Kind)
		}
		return ks
	}

	evs := flight(t, "-engine", "csim-C", "-workers", fmt.Sprint(workers))
	if n := 5 + 2*workers; len(evs) != n {
		t.Fatalf("csim-C: %d events %v, want %d", len(evs), kinds(evs), n)
	}
	head, shards, tail := evs[:3], evs[3:3+2*workers], evs[3+2*workers:]
	if got := kinds(head); !slices.Equal(got, []string{"parse", "collapse", "decide"}) {
		t.Errorf("csim-C: first events %v, want parse collapse decide", got)
	}
	if want := fmt.Sprintf("plan %dx1 ", workers); !strings.HasPrefix(head[2].Detail, want) {
		t.Errorf("csim-C: decide %q lacks prefix %q", head[2].Detail, want)
	}
	started := map[int]bool{}
	finished := map[int]bool{}
	for _, ev := range shards {
		var i int
		if _, err := fmt.Sscanf(ev.Detail, "csim-C shard %d: ", &i); err != nil || i < 0 || i >= workers {
			t.Errorf("csim-C: %s detail %q is not csim-C shard <i>: for a worker", ev.Kind, ev.Detail)
			continue
		}
		switch {
		case ev.Kind == "shard_start" && !started[i]:
			started[i] = true
		case ev.Kind == "shard_finish" && started[i] && !finished[i]:
			finished[i] = true
		default:
			t.Errorf("csim-C: %s of shard %d out of turn in %v", ev.Kind, i, kinds(shards))
		}
	}
	if got := kinds(tail); !slices.Equal(got, []string{"merge", "finish"}) {
		t.Errorf("csim-C: last events %v, want merge finish", got)
	}

	if got := kinds(flight(t, "-engine", "csim-MV")); !slices.Equal(got, []string{"parse", "collapse", "finish"}) {
		t.Errorf("csim-MV: events %v, want parse collapse finish", got)
	}
}

// runCsim runs this test binary as the csim command with args.
func runCsim(args ...string) ([]byte, error) {
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "CSIM_TEST_RUN_MAIN=1")
	return cmd.CombinedOutput()
}

// TestValidateSelections pins the up-front flag validation: unknown
// -engine/-faults/-suite names are rejected with a one-line hint that
// lists the accepted values, and every accepted value passes.
func TestValidateSelections(t *testing.T) {
	for _, eng := range engineNames() {
		if err := validateSelections(eng, "stuck", "s27"); err != nil {
			t.Errorf("engine %q rejected: %v", eng, err)
		}
	}
	for _, model := range engine.Models {
		if err := validateSelections("csim-MV", model, ""); err != nil {
			t.Errorf("model %q rejected: %v", model, err)
		}
	}
	cases := []struct {
		name                 string
		engine, model, suite string
		wantIn               string
	}{
		{"unknown engine", "csim-X", "stuck", "", "usage: -engine"},
		{"unknown model", "csim-MV", "bridging", "", "usage: -faults"},
		{"unknown suite", "csim-MV", "stuck", "s999999", "usage: -suite"},
	}
	for _, tc := range cases {
		err := validateSelections(tc.engine, tc.model, tc.suite)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantIn) {
			t.Errorf("%s: error %q lacks hint %q", tc.name, err, tc.wantIn)
		}
		if strings.Count(err.Error(), "\n") != 0 {
			t.Errorf("%s: hint is not one line: %q", tc.name, err)
		}
	}
}
