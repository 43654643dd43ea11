package bench

import (
	"fmt"
	"sort"
	"strings"
)

// Compare holds the current run to a baseline and returns nil only when
// both hold the same cells and every cell the same integers: sizes,
// detections, K and each work counter. The integers repeat exactly, so
// any difference — a counter that rose or fell, one that appeared or
// vanished, a cell added or dropped — is the code's, and the error lists
// each one.
func Compare(cur, base *Report) error {
	var diffs []string
	have := map[string]*CellResult{}
	for i := range cur.Cells {
		have[cur.Cells[i].Key] = &cur.Cells[i]
	}
	for i := range base.Cells {
		b := &base.Cells[i]
		c, ok := have[b.Key]
		if !ok {
			diffs = append(diffs, b.Key+": cell missing from the run")
			continue
		}
		delete(have, b.Key)
		diffs = append(diffs, diffInts(b.Key, b.ints(), c.ints())...)
	}
	for _, c := range cur.Cells {
		if have[c.Key] != nil {
			diffs = append(diffs, c.Key+": cell not in the baseline")
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("bench: %d difference(s) from the baseline (if intended, run `make baseline`):\n  %s",
		len(diffs), strings.Join(diffs, "\n  "))
}

// diffInts lists, in name order, the integers of one cell that differ
// between the baseline and the run or that only one of them has.
func diffInts(key string, base, cur map[string]int64) []string {
	names := make([]string, 0, len(base)+len(cur))
	for n := range base {
		names = append(names, n)
	}
	for n := range cur {
		if _, ok := base[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []string
	for _, n := range names {
		b, bok := base[n]
		c, cok := cur[n]
		switch {
		case !cok:
			out = append(out, fmt.Sprintf("%s: %s missing from the run (baseline %d)", key, n, b))
		case !bok:
			out = append(out, fmt.Sprintf("%s: %s not in the baseline (run %d)", key, n, c))
		case b != c:
			out = append(out, fmt.Sprintf("%s: %s %d → %d (%+d)", key, n, b, c, c-b))
		}
	}
	return out
}
