// Command tables regenerates the paper's experimental tables (2-6) on the
// benchmark suite. Absolute numbers reflect this machine and the synthetic
// stand-in circuits; the shapes (which engine wins, where macro extraction
// pays off, transition coverage below 50%) are the reproduction targets.
//
// Usage:
//
//	tables            # all tables, full circuit lists (slow)
//	tables -table 3   # one table
//	tables -quick     # small-circuit subsets only
//	tables -diff tables_output.txt   # drift check (see below)
//
// The -diff mode regenerates the selected tables and compares them
// against a previously captured output file, masking the volatile
// CPU/MEM columns (two-decimal numbers) so only the deterministic
// content — circuit statistics, fault counts, pattern counts,
// coverages, table structure — must match. CI runs it against the
// checked-in tables_output.txt so the file cannot silently go stale.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"repro/internal/harness"
)

// quickCircuits is the -quick circuit subset shared by tables 2-4 and 6.
var quickCircuits = []string{"s298", "s344", "s386", "s820", "s1494"}

// emit writes the requested table (0 = all) to w.
func emit(w io.Writer, table int, quick bool) error {
	t3 := harness.Table3Circuits
	t4 := harness.Table4Circuits
	t6 := harness.Table6Circuits
	t5ckt := "s35932"
	t5counts := harness.Table5PatternCounts
	if quick {
		t3 = quickCircuits
		t4 = quickCircuits
		t6 = quickCircuits
		t5ckt = "s1494"
		t5counts = []int{100, 500}
	}

	type job struct {
		n   int
		run func() (*harness.Table, error)
	}
	jobs := []job{
		{2, func() (*harness.Table, error) { return harness.Table2(t3) }},
		{3, func() (*harness.Table, error) { return harness.Table3(t3) }},
		{4, func() (*harness.Table, error) { return harness.Table4(t4) }},
		{5, func() (*harness.Table, error) { return harness.Table5(t5ckt, t5counts) }},
		{6, func() (*harness.Table, error) { return harness.Table6(t6) }},
	}
	for _, j := range jobs {
		if table != 0 && table != j.n {
			continue
		}
		t, err := j.run()
		if err != nil {
			return fmt.Errorf("table %d: %w", j.n, err)
		}
		fmt.Fprintln(w, t.String())
	}
	return nil
}

// volatileNum matches the CPU/MEM table cells: Seconds and Meg both
// print two decimals, while the deterministic coverage columns print one
// — so masking exactly the two-decimal numbers keeps coverage checked.
var volatileNum = regexp.MustCompile(`\b\d+\.\d\d\b`)

// maskVolatile replaces every CPU/MEM number with a fixed placeholder
// and collapses each run of spaces to one, trimming both ends: column
// padding moves with the numbers, as when a CPU cell crosses 10.00 s.
func maskVolatile(text string) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		out = append(out, strings.Join(strings.Fields(volatileNum.ReplaceAllString(sc.Text(), "#.##")), " "))
	}
	return out
}

// diffTables regenerates the selected tables and compares them, masked,
// against the captured file; mismatching lines go to w.
func diffTables(w io.Writer, path string, table int, quick bool) (ok bool, err error) {
	want, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var buf strings.Builder
	if err := emit(&buf, table, quick); err != nil {
		return false, err
	}
	got, exp := maskVolatile(buf.String()), maskVolatile(string(want))
	ok = true
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			e = exp[i]
		}
		if g != e {
			if ok {
				fmt.Fprintf(w, "tables: %s is stale (masked diff, line %d):\n", path, i+1)
			}
			ok = false
			fmt.Fprintf(w, "  -%s\n  +%s\n", e, g)
		}
	}
	return ok, nil
}

// validateTable rejects -table values outside the paper's tables with a
// one-line usage hint; without it an unknown number matched no job and
// the command silently emitted nothing.
func validateTable(n int) error {
	if n == 0 || (n >= 2 && n <= 6) {
		return nil
	}
	return fmt.Errorf("no table %d; usage: -table 2|3|4|5|6 (0 = all)", n)
}

func main() {
	var (
		table = flag.Int("table", 0, "table number (2-6); 0 = all")
		quick = flag.Bool("quick", false, "restrict to small circuits")
		diff  = flag.String("diff", "", "regenerate and compare against this captured output file (CPU/MEM columns masked); exit 1 on drift")
	)
	flag.Parse()

	if err := validateTable(*table); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}
	if *diff != "" {
		ok, err := diffTables(os.Stderr, *diff, *table, *quick)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			fmt.Fprintf(os.Stderr, "tables: regenerate with: go run ./cmd/tables > %s\n", *diff)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tables: %s is up to date\n", *diff)
		return
	}

	if err := emit(os.Stdout, *table, *quick); err != nil {
		fmt.Fprintf(os.Stderr, "tables: %v\n", err)
		os.Exit(1)
	}
}
