package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestRepoClean runs every analyzer over the whole module: the tree must
// lint clean so CI can treat any diagnostic as a regression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the full module; skipped in -short mode")
	}
	l := lint.NewLoader("../..")
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("no packages loaded")
	}
	// Six analyzers were deleted with evidence (DESIGN §8); a fifth one
	// here is a decision to record there, not drift.
	if n := len(lint.All()); n != 4 {
		t.Errorf("lint.All() has %d analyzers, want 4", n)
	}
	diags, err := lint.Run(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
