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
//	tables -diff tables_output.txt         # drift check (see below)
//	tables -engines                        # engine registry as markdown
//	tables -engines-readme README.md       # engine-table drift check
//
// The -diff mode regenerates the selected tables and compares them
// against a previously captured output file, masking the volatile
// CPU/MEM columns (two-decimal numbers) so only the deterministic
// content — circuit statistics, fault counts, pattern counts,
// coverages, table structure — must match. CI runs it against the
// checked-in tables_output.txt so the file cannot silently go stale.
//
// The -engines mode prints engine.Engines() as the markdown table
// README.md embeds; -engines-readme extracts that table back out of the
// README (its only three-column table with a backticked first cell) and
// fails when a row is missing, extra, reordered or reworded — CI runs
// it so the README cannot drift from the engine registry.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"

	"repro/internal/engine"
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

// engineRows renders the engine registry as the README's markdown rows
// (header excluded): one "| `name` | kind | description |" per engine.
func engineRows() []string {
	var rows []string
	for _, e := range engine.Engines() {
		rows = append(rows, fmt.Sprintf("| `%s` | %s | %s |", e.Name, e.Kind, e.Description))
	}
	return rows
}

// engineRow matches one three-column markdown row with a backticked
// first cell — the README engine table's row shape (every other README
// table is two-column, so this pattern finds exactly the engine rows).
var engineRow = regexp.MustCompile("^\\|\\s*(`[^`]+`)\\s*\\|([^|]*)\\|([^|]*)\\|\\s*$")

// diffEngines extracts the engine table from the README and compares it
// row-by-row, in order, against the registry; mismatches go to w.
func diffEngines(w io.Writer, path string) (ok bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	var got []string
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		if m := engineRow.FindStringSubmatch(sc.Text()); m != nil {
			got = append(got, fmt.Sprintf("| %s | %s | %s |",
				m[1], strings.TrimSpace(m[2]), strings.TrimSpace(m[3])))
		}
	}
	want := engineRows()
	ok = true
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, e string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			e = want[i]
		}
		if g != e {
			if ok {
				fmt.Fprintf(w, "tables: engine table in %s disagrees with engine.Engines() (row %d):\n", path, i+1)
			}
			ok = false
			fmt.Fprintf(w, "  registry: %s\n  readme:   %s\n", e, g)
		}
	}
	if !ok {
		fmt.Fprintln(w, "tables: regenerate the README rows with: go run ./cmd/tables -engines")
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
		table     = flag.Int("table", 0, "table number (2-6); 0 = all")
		quick     = flag.Bool("quick", false, "restrict to small circuits")
		diff      = flag.String("diff", "", "regenerate and compare against this captured output file (CPU/MEM columns masked); exit 1 on drift")
		engines   = flag.Bool("engines", false, "print the engine registry as the README's markdown table and exit")
		engReadme = flag.String("engines-readme", "", "compare the engine table in this README against the registry; exit 1 on drift")
	)
	flag.Parse()

	if *engines {
		fmt.Println("| Engine | Kind | What it is |")
		fmt.Println("|---|---|---|")
		for _, row := range engineRows() {
			fmt.Println(row)
		}
		return
	}
	if *engReadme != "" {
		ok, err := diffEngines(os.Stderr, *engReadme)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tables: %v\n", err)
			os.Exit(1)
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "tables: engine table in %s is up to date\n", *engReadme)
		return
	}
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
