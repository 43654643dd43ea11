package lint_test

import (
	"testing"

	"repro/internal/lint"
)

// TestRepoClean runs every analyzer over the whole module: the tree must
// lint clean so CI can treat any diagnostic as a regression. Clean means
// no active diagnostics, no malformed //simlint:ignore directives and no
// stale ones — a suppression whose diagnostic disappeared must be
// removed with it.
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
	r, err := lint.RunAll(pkgs, lint.All())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range r.Diags {
		t.Errorf("%s", d)
	}
	for _, d := range r.Malformed {
		t.Errorf("%s", d)
	}
	for _, s := range r.Unused {
		t.Errorf("%s: unused suppression: no %s diagnostic on this or the next line", s.Pos, s.Analyzer)
	}
	// The tree intentionally carries at least one real suppression (the
	// http.Serve pump in internal/service); if this count drops to zero
	// the suppression layer has silently stopped matching.
	if len(r.Suppressed) == 0 {
		t.Error("expected at least one used //simlint:ignore suppression in the tree")
	}
	for _, d := range r.Suppressed {
		if d.SuppressReason == "" {
			t.Errorf("%s: suppressed diagnostic lost its reason", d)
		}
	}
}
