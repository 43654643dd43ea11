package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
)

// Schema is the report format identifier. ReadReport rejects any other
// value, so a format change must bump the version and (if old baselines
// should keep working) grow an explicit migration path.
const Schema = "faultsim-bench/v1"

// Host records the machine a report was measured on. Wall times are only
// directly comparable between reports with matching hosts; Compare's
// default calibration-normalized mode exists for everything else.
type Host struct {
	// Go is the toolchain version (runtime.Version()).
	Go string `json:"go"`
	// OS is runtime.GOOS.
	OS string `json:"os"`
	// Arch is runtime.GOARCH.
	Arch string `json:"arch"`
	// CPUs is runtime.NumCPU() — the csim-grid scheduler's default budget.
	CPUs int `json:"cpus"`
}

// CellResult is one measured cell of a report.
type CellResult struct {
	// Key is the cell's stable identity (Cell.Key); baselines join on it.
	Key string `json:"key"`
	// Engine is the simulator configuration (its internal/engine name).
	Engine string `json:"engine"`
	// Circuit is the suite circuit name.
	Circuit string `json:"circuit"`
	// Model is the fault model (ModelStuck or ModelTransition).
	Model string `json:"model"`
	// Vectors is the vector source spec ("det" or "rand:N").
	Vectors string `json:"vectors"`
	// Workers is the cell's explicit processor budget for the compiled
	// kernel (0: the engine's default).
	Workers int `json:"workers,omitempty"`
	// Heavy records that the cell ran once without warmup.
	Heavy bool `json:"heavy,omitempty"`

	// Patterns is the applied vector count.
	Patterns int `json:"patterns"`
	// Faults is the universe size.
	Faults int `json:"faults"`
	// Detected is the hard-detection count (deterministic: a mismatch
	// against a baseline is a behavioral change, not noise).
	Detected int `json:"detected"`
	// PotOnly is the potentially-but-never-hard detected count.
	PotOnly int `json:"pot_only"`
	// Coverage is the hard fault coverage in [0,1].
	Coverage float64 `json:"coverage"`

	// TrialNs lists every measured trial's wall time in order.
	TrialNs []int64 `json:"trial_ns"`
	// BestNs is the fastest trial's wall time — the headline number.
	BestNs int64 `json:"best_ns"`
	// MemBytes is the accounted fault-structure memory at peak.
	MemBytes int64 `json:"mem_bytes"`
	// AllocBytes is the heap allocated during the fastest trial.
	AllocBytes int64 `json:"alloc_bytes"`
	// CyclesPerSec is Patterns divided by the best wall time.
	CyclesPerSec float64 `json:"cycles_per_sec"`
	// FaultCyclesPerSec is Patterns × Faults divided by the best wall
	// time — the throughput number that compares cells of different
	// sizes.
	FaultCyclesPerSec float64 `json:"fault_cycles_per_sec"`
	// PhasesNs is the fastest trial's per-phase wall time from the obs
	// tracer (phase name → nanoseconds); regression reports use it to
	// point at the phase that slowed down.
	PhasesNs map[string]int64 `json:"phases_ns,omitempty"`
	// Metrics is the fastest trial's full metric-registry snapshot.
	Metrics []obs.Point `json:"metrics,omitempty"`
}

// metric returns the value of the counter or gauge called name in the
// cell's metric snapshot, and whether the snapshot has it.
func (c *CellResult) metric(name string) (int64, bool) {
	for _, m := range c.Metrics {
		if m.Name == name {
			return m.Value, true
		}
	}
	return 0, false
}

// Report is one complete suite run — the BENCH_<timestamp>.json payload.
type Report struct {
	// Schema is the format identifier (the Schema constant).
	Schema string `json:"schema"`
	// Created is the run's UTC timestamp (RFC 3339).
	Created string `json:"created"`
	// Host is the measuring machine.
	Host Host `json:"host"`
	// Suite names the cell grid ("quick", "paper", "full", or a caller-
	// defined name for custom grids).
	Suite string `json:"suite"`
	// Trials and Warmup record the effective Options (heavy cells clamp
	// to one trial regardless).
	Trials int `json:"trials"`
	// Warmup is the discarded-run count per cell.
	Warmup int `json:"warmup"`
	// CalibrationNs is the Calibration cell's best wall time on this
	// host; Compare divides cell times by it in normalized mode.
	CalibrationNs int64 `json:"calibration_ns"`
	// Cells holds one result per suite cell, in suite order.
	Cells []CellResult `json:"cells"`
}

// Filename returns the conventional report name for a run timestamp:
// BENCH_<UTC compact timestamp>.json.
func Filename(t time.Time) string {
	return "BENCH_" + t.UTC().Format("20060102T150405Z") + ".json"
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

// Cell returns the result with the given key and whether it exists.
func (r *Report) Cell(key string) (CellResult, bool) {
	for _, c := range r.Cells {
		if c.Key == key {
			return c, true
		}
	}
	return CellResult{}, false
}

// ReadReport parses a report, rejecting unknown schema versions — a
// baseline from a future (or corrupted) format fails loudly rather than
// comparing garbage.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("bench: parsing report: %w", err)
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("bench: unsupported report schema %q (want %q)", r.Schema, Schema)
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

// WriteMarkdown renders the report as a standalone markdown table
// (no baseline): one row per cell with the headline measurements.
func (r *Report) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "# Benchmark report — suite %q\n\n", r.Suite)
	fmt.Fprintf(w, "%s · %s %s/%s · %d CPU · %d trial(s), %d warmup · calibration %s\n\n",
		r.Created, r.Host.Go, r.Host.OS, r.Host.Arch, r.Host.CPUs,
		r.Trials, r.Warmup, time.Duration(r.CalibrationNs))
	fmt.Fprintln(w, "| cell | wall | cycles/s | fault-cycles/s | mem MB | alloc MB | cvg% |")
	fmt.Fprintln(w, "|---|---:|---:|---:|---:|---:|---:|")
	for _, c := range r.Cells {
		fmt.Fprintf(w, "| %s | %s | %.0f | %.3g | %.2f | %.2f | %.1f |\n",
			c.Key, time.Duration(c.BestNs).Round(time.Microsecond),
			c.CyclesPerSec, c.FaultCyclesPerSec,
			float64(c.MemBytes)/(1<<20), float64(c.AllocBytes)/(1<<20),
			100*c.Coverage)
	}
	return nil
}
