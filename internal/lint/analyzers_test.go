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
	linttest.Run(t, lint.GoroutineLife, "testdata/src/unlisted")
}
