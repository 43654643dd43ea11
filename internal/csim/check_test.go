package csim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/gen"
	"repro/internal/logic"
	"repro/internal/macro"
	"repro/internal/netcheck"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// checkInvariants audits the simulator's fault-list machinery between
// cycles: the shared sentinel, sorted sentinel-terminated per-gate
// lists, the split-mode visible/invisible partition against current
// good values, arena accounting against the free list, and the local
// fault siting tables.
func (s *Simulator) checkInvariants() error {
	// Sentinel: arena slot 0 terminates every list and carries a fault ID
	// beyond all real faults so merges stop naturally.
	if len(s.arena) == 0 {
		return fmt.Errorf("csim: arena missing its sentinel slot")
	}
	if s.arena[0].fault != s.sentinel || s.arena[0].next != 0 {
		return fmt.Errorf("csim: sentinel corrupt: fault %d next %d, want fault %d next 0",
			s.arena[0].fault, s.arena[0].next, s.sentinel)
	}

	inList := make([]bool, len(s.arena))
	listed := 0
	walk := func(head int32, what string, vis bool, gate int) error {
		steps := 0
		prevFault := int32(-1)
		for idx := head; idx != 0; idx = s.arena[idx].next {
			if idx < 0 || int(idx) >= len(s.arena) {
				return fmt.Errorf("csim: %s list of gate %s links to arena index %d of %d",
					what, s.c.Gates[gate].Name, idx, len(s.arena))
			}
			if steps++; steps > len(s.arena) {
				return fmt.Errorf("csim: %s list of gate %s is cyclic",
					what, s.c.Gates[gate].Name)
			}
			e := &s.arena[idx]
			if inList[idx] {
				return fmt.Errorf("csim: arena element %d appears in two lists", idx)
			}
			inList[idx] = true
			listed++
			if e.fault < 0 || e.fault >= s.sentinel {
				return fmt.Errorf("csim: %s list of gate %s holds fault ID %d outside [0,%d)",
					what, s.c.Gates[gate].Name, e.fault, s.sentinel)
			}
			if e.fault <= prevFault {
				return fmt.Errorf("csim: %s list of gate %s not strictly ascending: %d after %d",
					what, s.c.Gates[gate].Name, e.fault, prevFault)
			}
			prevFault = e.fault
			// Partition discipline. Elements of dropped faults may linger
			// until a traversal reclaims them; they are exempt.
			if !s.dropped[e.fault] {
				good := s.goodVal[gate]
				if s.cfg.SplitLists && !vis && e.word.Out() != good {
					return fmt.Errorf("csim: invisible element (gate %s, fault %d) drives %v, good is %v",
						s.c.Gates[gate].Name, e.fault, e.word.Out(), good)
				}
				if s.cfg.SplitLists && vis && e.word.Out() == good {
					return fmt.Errorf("csim: visible element (gate %s, fault %d) matches the good value %v",
						s.c.Gates[gate].Name, e.fault, good)
				}
			}
		}
		return nil
	}
	for i := range s.c.Gates {
		if err := walk(s.vis[i], "visible", true, i); err != nil {
			return err
		}
		if err := walk(s.inv[i], "invisible", false, i); err != nil {
			return err
		}
		if !s.cfg.SplitLists && s.inv[i] != 0 {
			return fmt.Errorf("csim: gate %s has an invisible list without SplitLists",
				s.c.Gates[i].Name)
		}
	}

	// Free list: disjoint from live lists, poisoned fault IDs, and the
	// arena fully accounted for (1 sentinel + listed + free).
	free := 0
	steps := 0
	for idx := s.freeHead; idx >= 0; idx = s.arena[idx].next {
		if int(idx) >= len(s.arena) {
			return fmt.Errorf("csim: free list links to arena index %d of %d", idx, len(s.arena))
		}
		if steps++; steps > len(s.arena) {
			return fmt.Errorf("csim: free list is cyclic")
		}
		if idx == 0 {
			return fmt.Errorf("csim: sentinel slot on the free list")
		}
		if inList[idx] {
			return fmt.Errorf("csim: arena element %d on both a fault list and the free list", idx)
		}
		if s.arena[idx].fault != math.MaxInt32 {
			return fmt.Errorf("csim: free element %d not poisoned (fault %d)", idx, s.arena[idx].fault)
		}
		free++
	}
	if listed != s.stats.CurElems {
		return fmt.Errorf("csim: CurElems is %d but lists hold %d element(s)", s.stats.CurElems, listed)
	}
	if 1+listed+free != len(s.arena) {
		return fmt.Errorf("csim: arena leak: %d slot(s) = 1 sentinel + %d listed + %d free, want %d",
			len(s.arena), listed, free, 1+listed+free)
	}

	// Local fault tables: sorted, unique, in range.
	for g, loc := range s.locals {
		for i, f := range loc {
			if f < 0 || f >= s.sentinel {
				return fmt.Errorf("csim: gate %s local fault %d outside [0,%d)",
					s.c.Gates[g].Name, f, s.sentinel)
			}
			if i > 0 && loc[i-1] >= f {
				return fmt.Errorf("csim: gate %s local faults not strictly ascending",
					s.c.Gates[g].Name)
			}
		}
	}
	return nil
}

func checkSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	c, err := netlist.NewBuilder("chk").
		Input("i1").Input("i2").
		Gate("a", logic.OpAnd, "i1", "i2").
		Gate("n", logic.OpNot, "a").
		DFF("q", "n").
		Gate("o", logic.OpOr, "q", "i1").
		Output("o").
		Build()
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(faults.StuckAll(c), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(vectors.Random(c, 20, 7))
	if err := s.checkInvariants(); err != nil {
		t.Fatalf("healthy simulator rejected: %v", err)
	}
	return s
}

// TestCheckInvariantsDetectsCorruption seeds one corruption per case and
// verifies the audit names it.
func TestCheckInvariantsDetectsCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(s *Simulator)
		want    string
	}{
		{"sentinel", func(s *Simulator) { s.arena[0].next = 1 }, "sentinel corrupt"},
		{"accounting", func(s *Simulator) { s.stats.CurElems++ }, "CurElems"},
		{"local-order", func(s *Simulator) {
			for g := range s.locals {
				if len(s.locals[g]) >= 2 {
					l := s.locals[g]
					l[0], l[1] = l[1], l[0]
					return
				}
			}
			t.Fatal("no gate with 2+ local faults")
		}, "not strictly ascending"},
		{"free-poison", func(s *Simulator) {
			if s.freeHead < 0 {
				t.Skip("free list empty for this workload")
			}
			s.arena[s.freeHead].fault = 3
		}, "not poisoned"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := checkSim(t, MV())
			tc.corrupt(s)
			err := s.checkInvariants()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("corruption %q: got %v, want mention of %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestCheckInvariantsSplitPartition corrupts the visible/invisible
// partition directly: moving a visible element into the invisible list
// (or vice versa) must be caught in split mode.
func TestCheckInvariantsSplitPartition(t *testing.T) {
	s := checkSim(t, MV())
	moved := false
	for g := range s.vis {
		if head := s.vis[g]; head != 0 && !s.dropped[s.arena[head].fault] {
			s.inv[g], s.vis[g] = head, s.arena[head].next
			s.arena[head].next = 0
			moved = true
			break
		}
	}
	if !moved {
		t.Skip("no live visible element after this workload")
	}
	err := s.checkInvariants()
	if err == nil || !strings.Contains(err.Error(), "invisible element") {
		t.Fatalf("got %v, want invisible-element violation", err)
	}
}

// TestCheckInvariantsAllConfigs runs the audit after a short campaign in
// every engine configuration.
func TestCheckInvariantsAllConfigs(t *testing.T) {
	for _, cfg := range []Config{{}, V(), M(), MV()} {
		checkSim(t, cfg)
	}
}

// TestInvariantsEveryCycle steps the simulator one vector at a time and
// audits the fault-list machinery between every pair of cycles — the
// finest-grained use of the audit — plus the macro plan's structure and
// FFR-maximality up front. It then audits whole runs in all four
// configurations on the generated circuits integration's
// TestRandomCircuitsAllEnginesAgree holds to the serial oracle.
func TestInvariantsEveryCycle(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"plain", Config{}},
		{"V", V()},
		{"M", M()},
		{"MV", MV()},
		{"MV-reconv", Config{SplitLists: true, Macros: true, ReconvergentMacros: true}},
	}
	for seed := int64(1); seed <= 2; seed++ {
		c := genChecked(t, 5200+seed, 5, 4, 8, 80)
		u := faults.StuckCollapsed(c)
		if err := netcheck.AsError(netcheck.CheckUniverse(u)); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		vs := vectors.Random(c, 60, seed)
		for _, cf := range configs {
			sim, err := New(u, cf.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := netcheck.AsError(netcheck.CheckPlan(sim.plan)); err != nil {
				t.Fatalf("%s/%s: %v", c.Name, cf.name, err)
			}
			if cf.cfg.Macros {
				ps := netcheck.CheckPlanMaximal(sim.plan, macro.DefaultMaxInputs, cf.cfg.ReconvergentMacros)
				if err := netcheck.AsError(ps); err != nil {
					t.Fatalf("%s/%s: %v", c.Name, cf.name, err)
				}
			}
			for i, v := range vs.Vecs {
				sim.Cycle(v)
				if err := sim.checkInvariants(); err != nil {
					t.Fatalf("%s/%s after vector %d: %v", c.Name, cf.name, i, err)
				}
			}
		}
	}

	shapes := []struct{ pis, pos, ffs, gates int }{
		{2, 2, 0, 12},
		{3, 3, 4, 30},
		{5, 4, 8, 80},
		{8, 6, 12, 150},
	}
	for si, shape := range shapes {
		for seed := int64(1); seed <= 3; seed++ {
			c := genChecked(t, seed*100+int64(si), shape.pis, shape.pos, shape.ffs, shape.gates)
			u := faults.StuckCollapsed(c)
			vs := vectors.Random(c, 80, seed)
			for _, cf := range configs[:4] {
				sim, err := New(u, cf.cfg)
				if err != nil {
					t.Fatal(err)
				}
				sim.Run(vs)
				if err := sim.checkInvariants(); err != nil {
					t.Fatalf("%s/csim-%s: %v", c.Name, cf.name, err)
				}
			}
		}
	}
}

// genChecked generates a circuit the way integration's tests name theirs
// and holds it to netcheck before it is simulated.
func genChecked(t *testing.T, seed int64, pis, pos, ffs, gates int) *netlist.Circuit {
	t.Helper()
	c, err := gen.Generate(gen.Spec{
		Name: fmt.Sprintf("rnd%d", seed),
		PIs:  pis, POs: pos, DFFs: ffs, Gates: gates, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := netcheck.AsError(netcheck.Check(c)); err != nil {
		t.Fatalf("%s: %v", c.Name, err)
	}
	return c
}
