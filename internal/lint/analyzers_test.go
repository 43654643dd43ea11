package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestHotPathAlloc(t *testing.T) {
	linttest.Run(t, lint.HotPathAlloc, "testdata/src/hotpath")
}

func TestImmutablePlan(t *testing.T) {
	linttest.Run(t, lint.ImmutablePlan, "testdata/src/immutableplan")
}

func TestGuardedBy(t *testing.T) {
	linttest.Run(t, lint.GuardedBy, "testdata/src/guardedby")
}

func TestGoroutineLife(t *testing.T) {
	linttest.Run(t, lint.GoroutineLife, "testdata/src/goroutinelife")
}

func TestByName(t *testing.T) {
	for _, a := range lint.All() {
		got, ok := lint.ByName(a.Name)
		if !ok || got != a {
			t.Errorf("ByName(%q) = %v, %v; want %v", a.Name, got, ok, a)
		}
	}
	if _, ok := lint.ByName("nosuch"); ok {
		t.Error("ByName(nosuch) should not resolve")
	}
}
