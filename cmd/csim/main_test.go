package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/engine"
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
		cmd := exec.Command(os.Args[0], "-suite", "s27", "-random", "4", tc.arg, tc.val)
		cmd.Env = append(os.Environ(), "CSIM_TEST_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
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
// flag csim-C stays on one thread and csim-grid asks the scheduler.
func TestWorkersFlagReachesTheCompiledKernel(t *testing.T) {
	for _, tc := range []struct {
		args   []string
		wantIn string
	}{
		{[]string{"-engine", "csim-C", "-workers", "2"}, "engine:    csim-C\nworkers:   2\n"},
		{[]string{"-engine", "csim-C"}, "engine:    csim-C\nworkers:   1\n"},
		{[]string{"-engine", "csim-grid", "-workers", "2"}, "engine:    csim-grid\nworkers:   2\n"},
	} {
		cmd := exec.Command(os.Args[0], append([]string{"-suite", "s298", "-random", "64"}, tc.args...)...)
		cmd.Env = append(os.Environ(), "CSIM_TEST_RUN_MAIN=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !strings.Contains(string(out), tc.wantIn) {
			t.Errorf("%v: %v, output lacks %q:\n%s", tc.args, err, tc.wantIn, out)
		}
	}
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
