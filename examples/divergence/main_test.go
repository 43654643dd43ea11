package main

import (
	"os"
	"os/exec"
	"testing"
)

// TestOutputGolden pins the walkthrough's output: the fault log's
// diverge, converge and detect events in emission order, each cycle's
// batch ahead of that vector's element count.
func TestOutputGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/output.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, err := exec.Command("go", "run", ".").Output()
	if err != nil {
		t.Fatalf("go run: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("output changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
