package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// TestValidateTable pins the -table validation: 0 and 2-6 are accepted,
// anything else — which previously matched no table and silently emitted
// nothing — is rejected with a one-line usage hint.
func TestValidateTable(t *testing.T) {
	for _, n := range []int{0, 2, 3, 4, 5, 6} {
		if err := validateTable(n); err != nil {
			t.Errorf("table %d rejected: %v", n, err)
		}
	}
	for _, n := range []int{1, 7, -1, 42} {
		err := validateTable(n)
		if err == nil {
			t.Errorf("table %d accepted", n)
			continue
		}
		if !strings.Contains(err.Error(), "usage: -table") {
			t.Errorf("table %d: error %q lacks usage hint", n, err)
		}
	}
}

// TestMaskVolatile pins the drift-check masking: CPU/MEM cells (two
// decimals) are replaced, coverage cells (one decimal) and integer
// columns survive, and runs of space collapse to one.
func TestMaskVolatile(t *testing.T) {
	in := "s298   430  1.23   98.4   12.50  \nTotal  135.00 0.07\n"
	got := maskVolatile(in)
	want := []string{
		"s298 430 #.## 98.4 #.##",
		"Total #.## #.##",
	}
	if len(got) != len(want) {
		t.Fatalf("maskVolatile returned %d lines, want %d: %q", len(got), len(want), got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: got %q, want %q", i, got[i], want[i])
		}
	}
}

// TestMaskVolatileIgnoresCellWidth: two renderings of one table row that
// differ only in a CPU cell crossing 10.00 s, which widens the cell and
// moves the padding after it, mask to the same line.
func TestMaskVolatileIgnoresCellWidth(t *testing.T) {
	slow := maskVolatile("100    38.5     13.53   18.18   10.09       0.66      \n")
	fast := maskVolatile("100    38.5     13.53   18.18   9.87        0.66      \n")
	if len(slow) != 1 || len(fast) != 1 || slow[0] != fast[0] {
		t.Errorf("masked rows differ: %q vs %q", slow, fast)
	}
}

// TestDiffTablesQuick checks both directions of the drift gate on the
// quick Table 2: a freshly captured file passes, a doctored one (changed
// coverage cell) fails even though CPU/MEM columns are masked.
func TestDiffTablesQuick(t *testing.T) {
	var buf bytes.Buffer
	if err := emit(&buf, 2, true); err != nil {
		t.Fatal(err)
	}
	fresh := filepath.Join(t.TempDir(), "fresh.txt")
	if err := os.WriteFile(fresh, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var diag bytes.Buffer
	ok, err := diffTables(&diag, fresh, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Errorf("fresh capture reported stale:\n%s", diag.String())
	}

	doctored := bytes.Replace(buf.Bytes(), []byte("."), []byte("!"), 1)
	if bytes.Equal(doctored, buf.Bytes()) {
		t.Fatal("could not doctor the capture")
	}
	stale := filepath.Join(t.TempDir(), "stale.txt")
	if err := os.WriteFile(stale, doctored, 0o644); err != nil {
		t.Fatal(err)
	}
	diag.Reset()
	ok, err = diffTables(&diag, stale, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("doctored capture passed the drift check")
	}
}

// TestTable2QuickGolden pins the `tables -table 2 -quick` output: circuit
// statistics, fault counts, deterministic pattern counts and coverage are
// all seeded and platform-independent, so any drift means a refactor
// changed circuit generation, fault collapsing, ATPG, or the simulator
// itself. Regenerate deliberately with: go test ./cmd/tables -update
func TestTable2QuickGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := emit(&buf, 2, true); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "table2_quick.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("table 2 output drifted from golden file.\ngot:\n%s\nwant:\n%s",
			buf.Bytes(), want)
	}
}
