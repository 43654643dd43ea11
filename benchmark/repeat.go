package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// setFile is a set of runs: what -out appends to and -check-repeat reads.
type setFile struct {
	Runs []*report `json:"runs"`
}

func readSet(path string) (*setFile, error) {
	var s setFile
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func appendReport(path string, rep *report) error {
	s, err := readSet(path)
	if os.IsNotExist(err) {
		s, err = &setFile{}, nil
	}
	if err != nil {
		return err
	}
	s.Runs = append(s.Runs, rep)
	buf, err := json.MarshalIndent(s, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// quartiles returns what Python's statistics.quantiles(xs, n=4) returns
// (the "exclusive" method), which is how the driver measures spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the first and third quartile as a share
// of the median; a single run has none.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, _, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// values returns a set's runs of one workload, one value list per
// end-to-end metric.
func (s *setFile) values(workload string) map[string][]float64 {
	out := map[string][]float64{}
	for _, r := range s.Runs {
		if r.Workload == workload && r.PerLayer == nil {
			for n, v := range r.EndToEnd {
				out[n] = append(out[n], v.Value)
			}
		}
	}
	return out
}

// checkRepeat prints, for every (metric, workload) row of two sets of
// untraced runs, both medians with their spreads, the bound and a verdict.
// A row is unresolved when either spread exceeds the bound, differ when the
// medians are further apart than the bound, else agree. A failed job in
// either set is a differ row of its own.
func checkRepeat(w io.Writer, pathA, pathB string) (differ bool, err error) {
	a, err := readSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := readSet(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "%-11s %-19s %13s %7s %13s %7s %6s  %s\n", "workload", "metric", "a", "spread", "b", "spread", "bound", "verdict")
	for _, wl := range workloads {
		va, vb := a.values(wl.Name), b.values(wl.Name)
		for _, m := range endToEnd {
			if len(va[m.Name]) == 0 || len(vb[m.Name]) == 0 {
				return false, fmt.Errorf("%s/%s is missing from a set", wl.Name, m.Name)
			}
			ma, mb := median(va[m.Name]), median(vb[m.Name])
			sa, sb := spread(va[m.Name]), spread(vb[m.Name])
			verdict := "agree"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved"
			case mb > ma*(1+m.Bound) || ma > mb*(1+m.Bound):
				verdict, differ = "differ", true
			}
			fmt.Fprintf(w, "%-11s %-19s %13.6g %6.1f%% %13.6g %6.1f%% %5.0f%%  %s\n",
				wl.Name, m.Name, ma, 100*sa, mb, 100*sb, 100*m.Bound, verdict)
		}
		for _, s := range []*setFile{a, b} {
			for _, r := range s.Runs {
				if r.Workload == wl.Name && r.Failed > 0 {
					fmt.Fprintf(w, "%-11s %-19s seed %d: %d of %d jobs failed  differ\n", wl.Name, "failed_share", r.Seed, r.Failed, r.Attempted)
					differ = true
				}
			}
		}
	}
	return differ, nil
}
