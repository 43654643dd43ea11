// Package iscas provides the benchmark suite the paper evaluates on. The
// real ISCAS-89 s27 is embedded verbatim; the larger circuits are
// deterministic synthetic stand-ins generated to the published ISCAS-89
// PI/PO/FF/gate counts (the original netlists are not redistributable
// here; see DESIGN.md, substitutions). Every circuit is produced by a
// fixed seed, so all experiments are reproducible bit-for-bit.
package iscas

import (
	"fmt"
	"sync"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// S27Bench is the genuine ISCAS-89 s27 netlist.
const S27Bench = `# s27 (ISCAS-89)
INPUT(G0)
INPUT(G1)
INPUT(G2)
INPUT(G3)
OUTPUT(G17)
G5 = DFF(G10)
G6 = DFF(G11)
G7 = DFF(G13)
G14 = NOT(G0)
G17 = NOT(G11)
G8 = AND(G14, G6)
G15 = OR(G12, G8)
G16 = OR(G3, G8)
G9 = NAND(G16, G15)
G10 = NOR(G14, G11)
G11 = NOR(G5, G9)
G12 = NOR(G1, G7)
G13 = NAND(G2, G12)
`

// Info describes one suite circuit with its published ISCAS-89 shape.
type Info struct {
	Name  string
	PIs   int
	POs   int
	DFFs  int
	Gates int
	Real  bool // true when the embedded netlist is the genuine circuit
}

// Suite lists the circuits the paper's Tables 2-6 draw from, with the
// published ISCAS-89 statistics the stand-ins reproduce.
var Suite = []Info{
	{Name: "s27", PIs: 4, POs: 1, DFFs: 3, Gates: 10, Real: true},
	{Name: "s298", PIs: 3, POs: 6, DFFs: 14, Gates: 119},
	{Name: "s344", PIs: 9, POs: 11, DFFs: 15, Gates: 160},
	{Name: "s349", PIs: 9, POs: 11, DFFs: 15, Gates: 161},
	{Name: "s382", PIs: 3, POs: 6, DFFs: 21, Gates: 158},
	{Name: "s386", PIs: 7, POs: 7, DFFs: 6, Gates: 159},
	{Name: "s400", PIs: 3, POs: 6, DFFs: 21, Gates: 162},
	{Name: "s444", PIs: 3, POs: 6, DFFs: 21, Gates: 181},
	{Name: "s510", PIs: 19, POs: 7, DFFs: 6, Gates: 211},
	{Name: "s526", PIs: 3, POs: 6, DFFs: 21, Gates: 193},
	{Name: "s641", PIs: 35, POs: 24, DFFs: 19, Gates: 379},
	{Name: "s713", PIs: 35, POs: 23, DFFs: 19, Gates: 393},
	{Name: "s820", PIs: 18, POs: 19, DFFs: 5, Gates: 289},
	{Name: "s832", PIs: 18, POs: 19, DFFs: 5, Gates: 287},
	{Name: "s953", PIs: 16, POs: 23, DFFs: 29, Gates: 395},
	{Name: "s1196", PIs: 14, POs: 14, DFFs: 18, Gates: 529},
	{Name: "s1238", PIs: 14, POs: 14, DFFs: 18, Gates: 508},
	{Name: "s1423", PIs: 17, POs: 5, DFFs: 74, Gates: 657},
	{Name: "s1488", PIs: 8, POs: 19, DFFs: 6, Gates: 653},
	{Name: "s1494", PIs: 8, POs: 19, DFFs: 6, Gates: 647},
	{Name: "s5378", PIs: 35, POs: 49, DFFs: 179, Gates: 2779},
	{Name: "s35932", PIs: 35, POs: 320, DFFs: 1728, Gates: 16065},
}

// entry is one circuit's single-flight build slot: the first caller runs
// the parse/generation inside the Once while later callers block on it,
// and every caller sees the same *Circuit and error afterwards.
type entry struct {
	once sync.Once
	c    *netlist.Circuit
	err  error
}

var (
	mu    sync.Mutex
	cache = map[string]*entry{}
)

// Get returns a suite circuit by name, building (and caching) it on first
// use. It is safe for concurrent callers: the build is single-flighted
// per name (one parse/generation no matter how many goroutines ask at
// once), the global lock is held only for the map lookup, and different
// circuits build concurrently.
func Get(name string) (*netlist.Circuit, error) {
	info, err := lookup(name)
	if err != nil {
		return nil, err
	}
	mu.Lock()
	e, ok := cache[name]
	if !ok {
		e = &entry{}
		cache[name] = e
	}
	mu.Unlock()
	e.once.Do(func() { e.c, e.err = build(info) })
	return e.c, e.err
}

// build constructs one suite circuit from its published shape.
func build(info Info) (*netlist.Circuit, error) {
	if info.Real {
		return netlist.ParseBenchString(info.Name, S27Bench)
	}
	return gen.Generate(gen.Spec{
		Name: info.Name, PIs: info.PIs, POs: info.POs,
		DFFs: info.DFFs, Gates: info.Gates,
		Seed: seedFor(info.Name),
	})
}

func lookup(name string) (Info, error) {
	for _, in := range Suite {
		if in.Name == name {
			return in, nil
		}
	}
	return Info{}, fmt.Errorf("iscas: unknown circuit %q", name)
}

// seedFor derives a stable per-circuit seed from the name.
func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, b := range []byte(name) {
		h ^= int64(b)
		h *= 1099511628211
	}
	return h
}

// Names returns the suite circuit names in order.
func Names() []string {
	out := make([]string, len(Suite))
	for i, in := range Suite {
		out[i] = in.Name
	}
	return out
}
