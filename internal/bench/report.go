package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"
)

// Schema is the report format identifier. ReadReport rejects any other
// value, so a format change must bump the version.
const Schema = "faultsim-bench/v2"

// CellResult is one cell of a report: its key and the integers the gate
// holds it to. Every one repeats exactly from run to run on any host.
type CellResult struct {
	// Key is the cell's stable identity (Cell.Key); baselines join on it.
	Key string `json:"key"`
	// Patterns is the applied vector count.
	Patterns int `json:"patterns"`
	// Faults is the universe size.
	Faults int `json:"faults"`
	// Detected is the hard-detection count.
	Detected int `json:"detected"`
	// PotOnly is the potentially-but-never-hard detected count.
	PotOnly int `json:"pot_only"`
	// K is the worker count the run used (harness.Measurement.Workers:
	// the plan's K for csim-grid, 0 for engines without workers).
	K int `json:"k"`
	// Counters holds the run's non-zero work counters as
	// "<engine>.<stats field>" ("csim-C.evals").
	Counters map[string]int64 `json:"counters"`
	// Wall is the run's wall time, for the reader only: it is neither
	// stored nor compared.
	Wall time.Duration `json:"-"`
}

// ints lists every integer the gate compares, by name.
func (c *CellResult) ints() map[string]int64 {
	m := map[string]int64{
		"patterns": int64(c.Patterns),
		"faults":   int64(c.Faults),
		"detected": int64(c.Detected),
		"pot_only": int64(c.PotOnly),
		"k":        int64(c.K),
	}
	for name, v := range c.Counters {
		m[name] = v
	}
	return m
}

// Report is one run of a cell grid — the baseline file's payload.
type Report struct {
	// Schema is the format identifier (the Schema constant).
	Schema string `json:"schema"`
	// Cells holds one result per cell, in grid order.
	Cells []CellResult `json:"cells"`
}

// WriteJSON serializes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (0644, truncating).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = r.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReadReport parses a report, rejecting other schema versions: a v1
// baseline (timings, no K) fails loudly rather than gating half its
// cells.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	if err := json.NewDecoder(rd).Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: unsupported report schema %q (want %q; run `make baseline`)", r.Schema, Schema)
	}
	return &r, nil
}

// ReadReportFile reads and validates the report at path.
func ReadReportFile(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
