// Command simlint runs the project's static-analysis suite
// (internal/lint) over Go packages:
//
//	simlint [packages]
//
// It loads the packages (default ".") from source through lint.Loader —
// the same path the analyzer fixtures and TestRepoClean use — runs every
// analyzer of lint.All and prints the diagnostics to stderr.
// //simlint:ignore directives are honored: a suppressed diagnostic does
// not fail the run but is counted, while a malformed or unused directive
// is a failure in its own right. Exit status is 2 if any active
// diagnostic, malformed directive or unused suppression remains, 1 on a
// loading or analysis error, 0 otherwise.
package main

import (
	"fmt"
	"os"

	"repro/internal/lint"
)

func main() {
	patterns := os.Args[1:]
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := lint.NewLoader(".").Load(patterns...)
	if err != nil {
		fatal(err)
	}
	r, err := lint.RunAll(pkgs, lint.All())
	if err != nil {
		fatal(err)
	}
	for _, d := range r.Diags {
		fmt.Fprintln(os.Stderr, d)
	}
	for _, d := range r.Malformed {
		fmt.Fprintln(os.Stderr, d)
	}
	for _, s := range r.Unused {
		fmt.Fprintf(os.Stderr, "%s: unused suppression: no %s diagnostic on this or the next line\n", s.Pos, s.Analyzer)
	}
	if n := len(r.Suppressed); n > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d diagnostic(s) suppressed by //simlint:ignore\n", n)
	}
	if r.Failed() {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
	os.Exit(1)
}
