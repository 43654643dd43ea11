// Command simlint runs the project's static-analysis suite
// (internal/lint) over Go packages:
//
//	simlint [packages]
//
// It loads the packages (default ".") from source through lint.Loader —
// the same path the analyzer fixtures and TestRepoClean use — runs every
// analyzer of lint.All and prints the diagnostics to stderr. Exit status
// is 2 on any diagnostic, 1 on a loading or analysis error, 0 otherwise.
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
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
	os.Exit(1)
}
