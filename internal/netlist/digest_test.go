package netlist_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/iscas"
	"repro/internal/iscas/iscastest"
	"repro/internal/netlist"
)

var printDigests = flag.Bool("print-digests", false, "print the wantDigests table instead of checking it")

// digester folds integers and strings into an FNV-64a hash.
type digester struct{ h hash.Hash64 }

func (d digester) num(xs ...int64) {
	var buf [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		d.h.Write(buf[:])
	}
}

func (d digester) str(s string) {
	d.num(int64(len(s)))
	d.h.Write([]byte(s))
}

func (d digester) ids(ids []netlist.GateID) {
	d.num(int64(len(ids)))
	for _, id := range ids {
		d.num(int64(id))
	}
}

// circuitDigest covers everything a simulator reads off a circuit: gate
// IDs and names, ops, Fanin order, Fanout order with multiplicity,
// levels, PO flags, the PI/PO/DFF lists and the level buckets.
func circuitDigest(c *netlist.Circuit) uint64 {
	d := digester{fnv.New64a()}
	d.str(c.Name)
	d.num(int64(len(c.Gates)))
	for i := range c.Gates {
		g := &c.Gates[i]
		d.str(g.Name)
		po := int64(0)
		if g.PO {
			po = 1
		}
		d.num(int64(g.Op), int64(g.Level), po)
		d.ids(c.Fanin(netlist.GateID(i)))
		d.ids(c.Fanout(netlist.GateID(i)))
	}
	d.ids(c.PIs)
	d.ids(c.POs)
	d.ids(c.DFFs)
	d.num(int64(c.MaxLevel), int64(len(c.Levels)))
	for _, lv := range c.Levels {
		d.ids(lv)
	}
	return d.h.Sum64()
}

// universeDigest covers the three fault universes over c: every fault of
// the collapsed and uncollapsed stuck-at lists and of the transition
// list, in order, plus the collapsed universe's Rep.
func universeDigest(c *netlist.Circuit) uint64 {
	d := digester{fnv.New64a()}
	for _, u := range []*faults.Universe{
		faults.StuckCollapsed(c), faults.StuckAll(c), faults.Transition(c),
	} {
		d.num(int64(len(u.Faults)))
		for _, f := range u.Faults {
			d.num(int64(f.ID), int64(f.Gate), int64(f.Pin), int64(f.Kind))
		}
		d.num(int64(len(u.Rep)))
		for _, r := range u.Rep {
			d.num(int64(r))
		}
	}
	return d.h.Sum64()
}

// coldSpec is the shape of the netlists benchmark/'s svc-cold ships: the
// published s5378 counts, under a seed of that workload's.
var coldSpec = gen.Spec{Name: "gen2779x179-1000", PIs: 35, POs: 49, DFFs: 179, Gates: 2779, Seed: 1000}

// wantDigests is {circuitDigest, universeDigest} per circuit, captured at
// the parent of PR 24, before the builder, the parser and the collapse
// were rewritten. Regenerate with `go test ./internal/netlist -run
// TestDigests -v -args -print-digests` only for a change that means to
// renumber gates or faults.
var wantDigests = map[string][2]uint64{
	"s27":              {0xfdd6cc06960d6c6e, 0x77dbb7cab69580dd},
	"s298":             {0x4db4e05075838d77, 0x3459dbebdadc0620},
	"s344":             {0x7b67cc54f8c5e256, 0x6d6182bb2747416e},
	"s349":             {0xad480dc4edaaf8f7, 0xb9b9e82cd6637042},
	"s382":             {0xe0de5f8f1cd3543, 0xeab5c591a9e66bf5},
	"s386":             {0xa567357017f2ad83, 0xf56785e48b47276},
	"s400":             {0x5fb9703e7f727fe5, 0x35f1d364253d6451},
	"s444":             {0xa78e44b2778db6b3, 0x59736f6f9f493bf3},
	"s510":             {0xf37810998be5fa4f, 0x768b52229f257991},
	"s526":             {0xd0cb93fc6d31d40d, 0xcb55660dea99a97c},
	"s641":             {0x7a398422f220a91, 0xd8017cb61996c74a},
	"s713":             {0xca0c3600bede749d, 0x957aa8b8d795de28},
	"s820":             {0x3583559f9da93790, 0x8e4e6c296c4c6d6a},
	"s832":             {0x29e530596540f740, 0x9c3fc1c2c3d02c23},
	"s953":             {0xb550d61a23577c49, 0xe6c32546844e3e6d},
	"s1196":            {0xa7a7c00cfbce6570, 0x3fc3403ae1d2b153},
	"s1238":            {0x1031ae8f56fcec21, 0xa92e0a24dc7ff8dc},
	"s1423":            {0x9127f48d8499f8e7, 0x1e4bdb326176954c},
	"s1488":            {0x409f3c9bed672930, 0xcc8d290a57d7a868},
	"s1494":            {0x223336abbf4240b, 0xc85b9713b001f506},
	"s5378":            {0x708f8c81be6f288, 0x2cc543b0a86d5c6c},
	"s35932":           {0x8e7d826495b15bfc, 0xc0020a483e2787da},
	"gen120":           {0xa1eaad3af9c3588, 0xfee0e568f780bab5},
	"gen2779x179-1000": {0x9eb2dc92dcd0c8ce, 0x94bdb40b5119c490},
}

func TestDigests(t *testing.T) {
	type named struct {
		name string
		c    *netlist.Circuit
	}
	var cases []named
	for _, name := range iscas.Names() {
		cases = append(cases, named{name, iscastest.MustGet(name)})
	}
	for _, spec := range []gen.Spec{
		{Name: "gen120", PIs: 5, POs: 4, DFFs: 7, Gates: 120, Seed: 7},
		coldSpec,
	} {
		c, err := gen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, named{spec.Name, c})
	}
	// Each circuit is digested as built — gen.Generate's Builder
	// calls, the parser for s27 — and again after WriteBench →
	// ParseBenchString, which renumbers nothing on these (inputs first).
	for _, tc := range cases {
		re, err := netlist.ParseBenchString(tc.c.Name, iscastest.BenchString(tc.c))
		if err != nil {
			t.Fatalf("%s: reparse: %v", tc.name, err)
		}
		built := [2]uint64{circuitDigest(tc.c), universeDigest(tc.c)}
		if *printDigests {
			fmt.Printf("\t%q: {%#x, %#x},\n", tc.name, built[0], built[1])
			continue
		}
		want := wantDigests[tc.name]
		if built != want {
			t.Errorf("%s as built: {circuit, universes} = %#x, want %#x", tc.name, built, want)
		}
		if reparsed := [2]uint64{circuitDigest(re), universeDigest(re)}; reparsed != want {
			t.Errorf("%s reparsed: {circuit, universes} = %#x, want %#x", tc.name, reparsed, want)
		}
	}
}
