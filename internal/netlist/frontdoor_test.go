package netlist_test

import (
	"testing"

	"repro/internal/compiled"
	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/iscas"
	"repro/internal/iscas/iscastest"
	"repro/internal/netcheck"
	"repro/internal/netlist"
)

// TestMissChainAllocs bounds what a compiled-circuit cache miss allocates
// on benchmark/'s svc-cold shape: parse → netcheck.Check → StuckCollapsed
// → Compile took 23,023 allocations before PR 24 cut the per-gate slices,
// the per-line copies and the site and class maps, and 2,875 before
// compiled.Compile stopped building a []sop per gate. About 80 are left,
// each an array allocated once per stage.
func TestMissChainAllocs(t *testing.T) {
	c, err := gen.Generate(coldSpec)
	if err != nil {
		t.Fatal(err)
	}
	text := iscastest.BenchString(c)
	allocs := testing.AllocsPerRun(5, func() {
		c, err := netlist.ParseBenchString("cold", text)
		if err != nil {
			t.Fatal(err)
		}
		if ps := netcheck.Check(c); len(ps) > 0 {
			t.Fatal(netcheck.AsError(ps))
		}
		if u := faults.StuckCollapsed(c); u.NumFaults() == 0 {
			t.Fatal("empty universe")
		}
		compiled.Compile(c)
	})
	if allocs > 200 {
		t.Errorf("a miss on a %d-byte netlist allocates %.0f times, want at most 200", len(text), allocs)
	}
}

// sameByName reports how b differs from a as a netlist — the signals, each
// one's op, fanin names in pin order and PO flag — or "" if it does not.
// Gate numbering is not compared: WriteBench lists the inputs first. b's
// names are indexed once; Circuit.ByName scans.
func sameByName(a, b *netlist.Circuit) string {
	if len(a.Gates) != len(b.Gates) || len(a.PIs) != len(b.PIs) || len(a.POs) != len(b.POs) || len(a.DFFs) != len(b.DFFs) {
		return "shape changed: " + a.Stats().String() + " vs " + b.Stats().String()
	}
	byName := make(map[string]netlist.GateID, len(b.Gates))
	for i := range b.Gates {
		byName[b.Gates[i].Name] = netlist.GateID(i)
	}
	for i := range a.Gates {
		g := &a.Gates[i]
		id, ok := byName[g.Name]
		if !ok {
			return "lost signal " + g.Name
		}
		h := b.Gate(id)
		gin, hin := a.Fanin(netlist.GateID(i)), b.Fanin(id)
		if h.Op != g.Op || h.PO != g.PO || len(hin) != len(gin) {
			return "changed gate " + g.Name
		}
		for pin, f := range gin {
			if b.Gate(hin[pin]).Name != a.Gate(f).Name {
				return "rewired gate " + g.Name
			}
		}
	}
	return ""
}

// FuzzParseBench feeds raw bytes to the service's front door. The parser
// answers with an error or with a circuit that passes netcheck, survives
// WriteBench → ParseBenchString as the same netlist — and, once its inputs
// come first, as the same circuit and fault universes to the digest — and
// compiles; it never panics. The committed corpus under testdata/fuzz holds
// the malformed shapes; the suite's own renderings, cut at 2 KB, are added
// here.
func FuzzParseBench(f *testing.F) {
	for _, name := range iscas.Names() {
		text := iscastest.BenchString(iscastest.MustGet(name))
		f.Add([]byte(text[:min(len(text), 2048)]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := netlist.ParseBenchString("fuzz", string(data))
		if err != nil {
			return
		}
		if ps := netcheck.Check(c); len(ps) > 0 {
			t.Fatalf("parsed circuit fails netcheck: %v", netcheck.AsError(ps))
		}
		canon, err := netlist.ParseBenchString("fuzz", iscastest.BenchString(c))
		if err != nil {
			t.Fatalf("reparse: %v\n%s", err, iscastest.BenchString(c))
		}
		if diff := sameByName(c, canon); diff != "" {
			t.Fatalf("WriteBench → ParseBenchString %s", diff)
		}
		again, err := netlist.ParseBenchString("fuzz", iscastest.BenchString(canon))
		if err != nil {
			t.Fatalf("second reparse: %v", err)
		}
		if circuitDigest(again) != circuitDigest(canon) || universeDigest(again) != universeDigest(canon) {
			t.Fatalf("WriteBench → ParseBenchString renumbered an inputs-first circuit:\n%s", iscastest.BenchString(canon))
		}
		compiled.Compile(c)
	})
}
