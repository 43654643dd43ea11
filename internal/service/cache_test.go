package service

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/netlist"
)

// liveHeap returns the bytes of heap objects still reachable after two
// collections: what a sync.Pool holds idle, such as a circuit's idle
// compiled-kernel workers, survives the first in the pool's victim cache
// and goes at the second, so it is nobody's retained weight.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestCacheEntryWeight weighs what one compiled-circuit cache entry keeps
// live on benchmark/'s svc-cold shape — the circuit, its collapsed stuck-at
// universe and its compiled program — by building 40 entries, each from a
// fresh copy of the netlist text as a request body would be, and reading
// HeapAlloc after runtime.GC() between the stages. The weight is what the
// cache's count bound multiplies; it read 994 KB per entry when the
// circuit kept a name map and its gate names pointed into the text, and
// 662 KB when every gate carried its own fanin and fanout slice headers
// and the program a copy of the fanins.
// `go test ./internal/service -run TestCacheEntryWeight -v` prints the
// per-stage figures DESIGN §10 tabulates.
func TestCacheEntryWeight(t *testing.T) {
	const entries, maxPerEntry = 40, 540 << 10
	c, err := gen.Generate(gen.Spec{Name: "gen2779x179-1000", PIs: 35, POs: 49, DFFs: 179, Gates: 2779, Seed: 1000})
	if err != nil {
		t.Fatal(err)
	}
	text := netlist.BenchString(c)

	cache := NewCache(64, nil)
	ccs := make([]*Compiled, entries)
	start := liveHeap()
	for i := range ccs {
		// A distinct suffix gives a distinct key and a fresh string.
		spec := JobSpec{Bench: fmt.Sprintf("%s# entry %d\n", text, i), BenchName: "cold"}
		if ccs[i], _, err = cache.Lookup(&spec); err != nil {
			t.Fatal(err)
		}
	}
	circuit := liveHeap()
	for _, cc := range ccs {
		if _, err := cc.Universe("stuck"); err != nil {
			t.Fatal(err)
		}
	}
	universe := liveHeap()
	for _, cc := range ccs {
		cc.Program()
	}
	program := liveHeap()
	runtime.KeepAlive(cache)

	per := func(from, to int64) int64 { return (to - from) / entries }
	t.Logf("per entry on a %d-byte netlist: circuit %d B, universe %d B, program %d B, entry %d B",
		len(text), per(start, circuit), per(circuit, universe), per(universe, program), per(start, program))
	if w := per(start, program); w > maxPerEntry {
		t.Errorf("a cache entry weighs %d KB live, want at most %d KB", w>>10, maxPerEntry>>10)
	}
}
