package netcheck

import (
	"fmt"

	"repro/internal/macro"
	"repro/internal/netlist"
)

// CheckPlan verifies a macro plan's structural invariants: every
// combinational gate owned by exactly one macro, leaves strictly outside
// their macro, roots as the last instruction, and macro levels strictly
// above all leaf levels.
func CheckPlan(p *macro.Plan) []Problem {
	c := p.C
	var ps []Problem
	for i := range c.Gates {
		id := netlist.GateID(i)
		g := &c.Gates[i]
		own := p.Owner[i]
		if g.IsSource() {
			if own != id {
				ps = append(ps, Problem{"plan-owner",
					fmt.Sprintf("source %s owned by %s", g.Name, gname(c, own))})
			}
			if p.ByRoot[i] != nil {
				ps = append(ps, Problem{"plan-owner",
					fmt.Sprintf("source %s has a macro", g.Name)})
			}
			continue
		}
		m := p.ByRoot[own]
		if m == nil || !m.Contains(id) {
			ps = append(ps, Problem{"plan-cover",
				fmt.Sprintf("gate %s not covered by its owner macro %s", g.Name, gname(c, own))})
			continue
		}
		if own != id && p.ByRoot[i] != nil {
			ps = append(ps, Problem{"plan-cover",
				fmt.Sprintf("absorbed gate %s also roots a macro", g.Name)})
		}
	}
	for i, m := range p.ByRoot {
		if m == nil {
			continue
		}
		root := netlist.GateID(i)
		if m.Root != root {
			ps = append(ps, Problem{"plan-root",
				fmt.Sprintf("macro at %s records root %s", gname(c, root), gname(c, m.Root))})
			continue
		}
		seen := map[netlist.GateID]bool{}
		for _, l := range m.Leaves {
			if seen[l] {
				ps = append(ps, Problem{"plan-leaves",
					fmt.Sprintf("macro %s lists leaf %s twice", gname(c, root), gname(c, l))})
			}
			seen[l] = true
			if m.Contains(l) {
				ps = append(ps, Problem{"plan-leaves",
					fmt.Sprintf("macro %s absorbs its own leaf %s", gname(c, root), gname(c, l))})
			}
			// A combinational leaf must root its own macro: its output is
			// consumed outside whatever macro owns it.
			if !c.Gate(l).IsSource() && p.ByRoot[l] == nil {
				ps = append(ps, Problem{"plan-leaves",
					fmt.Sprintf("macro %s has combinational leaf %s that roots no macro",
						gname(c, root), gname(c, l))})
			}
		}
		// Macro level strictly above every leaf's macro level.
		lvl := p.RootLevel[root]
		if lvl < 1 {
			ps = append(ps, Problem{"plan-level",
				fmt.Sprintf("macro %s at level %d, want >= 1", gname(c, root), lvl)})
		}
		for _, l := range m.Leaves {
			if ll := p.RootLevel[l]; lvl <= ll {
				ps = append(ps, Problem{"plan-level",
					fmt.Sprintf("macro %s (level %d) not above leaf %s (level %d)",
						gname(c, root), lvl, gname(c, l), ll)})
			}
		}
	}
	return ps
}

// CheckPlanMaximal verifies the FFR-maximality of an extracted plan
// built with the given leaf cap: no macro may have a leaf that the
// extraction rules would still absorb. maxInputs and reconvergent must
// match the macro.Extract / macro.ExtractReconvergent call that built
// the plan; Trivial plans are intentionally non-maximal and should not
// be checked.
func CheckPlanMaximal(p *macro.Plan, maxInputs int, reconvergent bool) []Problem {
	c := p.C
	// Mirror extract's internal cap clamp.
	if maxInputs > macro.TableMaxInputs+8 {
		maxInputs = macro.TableMaxInputs + 8
	}
	var ps []Problem
	for i, m := range p.ByRoot {
		if m == nil {
			continue
		}
		root := netlist.GateID(i)
		leafSet := map[netlist.GateID]bool{}
		for _, l := range m.Leaves {
			leafSet[l] = true
		}
		for _, l := range m.Leaves {
			if absorbable(p, m, l, leafSet, maxInputs, reconvergent) {
				ps = append(ps, Problem{"plan-maximal",
					fmt.Sprintf("macro %s is not maximal: leaf %s is still absorbable",
						gname(c, root), gname(c, l))})
			}
		}
	}
	return ps
}

// absorbable reports whether extraction would fold leaf l into macro m:
// a combinational non-observable gate whose entire fanout lies inside
// the macro (fanout-free mode additionally requires single fanout),
// without pushing the leaf count past maxInputs.
func absorbable(p *macro.Plan, m *macro.Macro, l netlist.GateID, leafSet map[netlist.GateID]bool, maxInputs int, reconvergent bool) bool {
	c := p.C
	g, fanout := c.Gate(l), c.Fanout(l)
	if g.IsSource() || g.PO || len(fanout) == 0 {
		return false
	}
	if !reconvergent && len(fanout) != 1 {
		return false
	}
	for _, fo := range fanout {
		if c.Gate(fo).IsSource() {
			return false // feeds a DFF D pin: natural root
		}
		if fo != m.Root && !m.Contains(fo) {
			return false // consumed outside the macro
		}
	}
	newCount := len(m.Leaves) - 1
	fresh := 0
	for _, f := range c.Fanin(l) {
		if !leafSet[f] || f == l {
			fresh++
		}
	}
	return newCount+fresh <= maxInputs
}
