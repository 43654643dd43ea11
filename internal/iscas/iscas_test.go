package iscas

import (
	"slices"
	"sync"
	"testing"

	"repro/internal/netlist"
)

// mustGet is Get for a name the test knows is in the suite.
func mustGet(t *testing.T, name string) *netlist.Circuit {
	t.Helper()
	c, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestS27IsReal(t *testing.T) {
	c := mustGet(t, "s27")
	st := c.Stats()
	if st.PIs != 4 || st.POs != 1 || st.DFFs != 3 || st.Gates != 10 {
		t.Errorf("s27 stats wrong: %v", st)
	}
	if !slices.ContainsFunc(c.Gates, func(g netlist.Gate) bool { return g.Name == "G17" }) {
		t.Error("s27 missing G17 (not the real netlist?)")
	}
}

func TestSuiteShapesMatchPublished(t *testing.T) {
	for _, info := range Suite {
		if info.Gates > 1000 && testing.Short() {
			continue
		}
		c, err := Get(info.Name)
		if err != nil {
			t.Fatalf("%s: %v", info.Name, err)
		}
		st := c.Stats()
		if st.PIs != info.PIs || st.POs != info.POs || st.DFFs != info.DFFs || st.Gates != info.Gates {
			t.Errorf("%s: generated %v, want %+v", info.Name, st, info)
		}
	}
}

func TestGetCaches(t *testing.T) {
	a := mustGet(t, "s298")
	b := mustGet(t, "s298")
	if a != b {
		t.Error("Get did not cache")
	}
}

// TestGetConcurrent hammers Get from 16 goroutines across a mix of
// circuits (run under -race in CI): every caller must observe the same
// cached *Circuit per name, errors included, with the parse single-
// flighted. csimd's worker pool resolves suite circuits concurrently on
// every job, so this is its admission-path contract.
func TestGetConcurrent(t *testing.T) {
	names := []string{"s27", "s298", "s344", "s386", "s27", "s298", "nosuch"}
	const goroutines = 16
	got := make([]map[string]*netlist.Circuit, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			seen := map[string]*netlist.Circuit{}
			for iter := 0; iter < 8; iter++ {
				for _, name := range names {
					c, err := Get(name)
					if name == "nosuch" {
						if err == nil {
							t.Errorf("goroutine %d: Get(nosuch) succeeded", g)
						}
						continue
					}
					if err != nil {
						t.Errorf("goroutine %d: Get(%s): %v", g, name, err)
						continue
					}
					if prev, ok := seen[name]; ok && prev != c {
						t.Errorf("goroutine %d: Get(%s) returned two distinct circuits", g, name)
					}
					seen[name] = c
				}
			}
			got[g] = seen
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		for name, c := range got[g] {
			if got[0][name] != c {
				t.Errorf("goroutines 0 and %d disagree on cached %s", g, name)
			}
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("s9999"); err == nil {
		t.Error("unknown circuit accepted")
	}
}

func TestNames(t *testing.T) {
	names := Names()
	if len(names) != len(Suite) || names[0] != "s27" {
		t.Errorf("Names() = %v", names)
	}
}
