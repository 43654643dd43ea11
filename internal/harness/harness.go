// Package harness runs the paper's experiments: it pairs circuits with
// test sets, runs a chosen simulator configuration, and collects the
// CPU-time / memory / coverage measurements that Tables 2-6 report.
package harness

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/csim"
	"repro/internal/engine"
	"repro/internal/faults"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// Measurement is one table cell group: an engine run on one workload.
type Measurement struct {
	// Engine is the measured simulator configuration's registered name.
	Engine string
	// Circuit is the workload circuit's name.
	Circuit string
	// Patterns is the applied test-vector count.
	Patterns int
	// Faults is the fault-universe size.
	Faults int
	// Detected is the hard-detection count.
	Detected int
	// PotOnly counts potentially-but-never-hard detected faults.
	PotOnly int
	// Coverage is hard coverage in [0,1].
	Coverage float64
	// CPU is the measured wall time of the run.
	CPU time.Duration
	// Stats is the run's record of its work, as engine.Run returned it;
	// Stats.MemBytes is the accounted fault-structure memory at peak.
	Stats csim.Stats
	// Workers is the compiled kernel's worker count (csim-C and
	// csim-grid; 0 otherwise).
	Workers int
	// Result is the run's per-fault detections.
	Result *faults.Result
}

// FltCvg returns hard coverage in percent.
func (m Measurement) FltCvg() float64 { return 100 * m.Coverage }

// sets holds the harness's one artifact set per circuit, so every table
// and work-counter cell on a circuit shares its universes, macro plans and
// compiled program, and no timed run pays for building them.
var (
	setsMu sync.Mutex
	sets   = map[*netlist.Circuit]*engine.Artifacts{}
)

// Artifacts returns the circuit's artifact set, preparing it on first use.
func Artifacts(c *netlist.Circuit) *engine.Artifacts {
	setsMu.Lock()
	defer setsMu.Unlock()
	a := sets[c]
	if a == nil {
		a = engine.Prepare(c)
		sets[c] = a
	}
	return a
}

// Run measures one engine over a universe and test set: it builds what
// the engine reads in the circuit's artifact set, then times engine.Run
// on that set. workers is the compiled kernel's processor budget
// (engine.Options.Workers; other engines ignore it). ob may be nil; its
// flight recorder, when set, receives the engine's events (a compiled
// run's decide, shard and merge).
func Run(name string, u *faults.Universe, vs *vectors.Set, workers int, ob *obs.Observer) (Measurement, error) {
	m := Measurement{
		Engine:   name,
		Circuit:  u.Circuit.Name,
		Patterns: vs.Len(),
		Faults:   u.NumFaults(),
	}
	a := Artifacts(u.Circuit)
	if err := a.Warm(name); err != nil {
		return m, err
	}
	opt := engine.Options{Workers: workers, Artifacts: a, Obs: ob}
	m.Workers = engine.Workers(name, u.NumFaults(), opt)
	start := time.Now()
	res, st, err := engine.Run(context.Background(), name, u, vs, opt)
	if err != nil {
		return m, err
	}
	m.CPU = time.Since(start)
	m.Stats, m.Result = st, res
	m.Detected = res.NumDet
	m.PotOnly = res.NumPotOnly()
	m.Coverage = res.Coverage()
	return m, nil
}

// Table renders rows of measurements as an aligned text table.
type Table struct {
	// Title prints above the header.
	Title string
	// Header is the column-name row.
	Header []string
	// Rows are the body cells, one slice per row.
	Rows [][]string
	// Caption prints below the body.
	Caption string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	total := 0
	for _, w := range widths {
		total += w + 2
	}
	b.WriteString(strings.Repeat("-", total))
	b.WriteByte('\n')
	for _, r := range t.Rows {
		line(r)
	}
	if t.Caption != "" {
		fmt.Fprintf(&b, "%s\n", t.Caption)
	}
	return b.String()
}

// Seconds formats a duration as the paper's CPU columns (seconds).
func Seconds(d time.Duration) string { return fmt.Sprintf("%.2f", d.Seconds()) }

// Meg formats bytes as megabytes.
func Meg(b int64) string { return fmt.Sprintf("%.2f", float64(b)/(1<<20)) }
