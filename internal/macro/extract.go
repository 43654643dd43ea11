package macro

import (
	"fmt"
	"sort"

	"repro/internal/netlist"
)

// Plan partitions a circuit's combinational network into macros. Sources
// (PIs and DFFs) stay standalone. Every combinational gate belongs to
// exactly one macro; its macro's root is the only gate the concurrent
// simulator schedules and keeps fault lists for. The compiled-circuit
// cache hands one Plan to any number of concurrent jobs (csim.Config
// carries it by pointer), so a Plan is frozen once extraction returns.
//
//simlint:immutable
type Plan struct {
	C *netlist.Circuit

	// Owner maps every gate to the root of the macro that absorbed it;
	// sources and roots map to themselves.
	Owner []netlist.GateID

	// ByRoot maps a root gate to its macro; nil entries for non-roots.
	ByRoot []*Macro

	// Roots lists macro roots grouped by evaluation level: Levels[l] holds
	// roots whose macro level is l (>= 1). A macro's level is 1 + max of
	// its leaves' macro levels, with sources at level 0.
	Levels   [][]netlist.GateID
	MaxLevel int32
	// RootLevel holds the macro level per gate (roots only; 0 otherwise).
	RootLevel []int32

	// MaxFrame is the largest FrameSize over all macros.
	MaxFrame int
}

// NumMacros counts the macros in the plan.
func (p *Plan) NumMacros() int {
	n := 0
	for _, m := range p.ByRoot {
		if m != nil {
			n++
		}
	}
	return n
}

// Trivial returns the identity plan: every combinational gate is a
// one-instruction macro. The concurrent simulator without macro extraction
// (csim-V) runs on this plan.
func Trivial(c *netlist.Circuit) *Plan {
	p := newPlan(c)
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.IsSource() {
			continue
		}
		id := netlist.GateID(i)
		m := &Macro{Root: id, gateInstr: map[netlist.GateID]int32{id: 0}}
		m.Leaves = append(m.Leaves, c.Fanin(id)...)
		args := make([]int32, len(m.Leaves))
		for j := range args {
			args[j] = int32(j)
		}
		m.Prog = []Instr{{Op: g.Op, Gate: id, Args: args, Out: int32(len(m.Leaves))}}
		p.ByRoot[id] = m
	}
	p.finish(false)
	return p
}

// Extract builds the fanout-free-region plan: each macro is grown
// backwards from its root, absorbing any feeder that (a) is a
// combinational non-source gate, (b) fans out only to the growing macro,
// (c) is not itself observable (PO), as long as the leaf count stays
// within maxInputs. Macros with at most TableMaxInputs leaves get full
// ternary lookup tables.
func Extract(c *netlist.Circuit, maxInputs int) (*Plan, error) {
	return extract(c, maxInputs, false)
}

// ExtractReconvergent builds the paper's §2.2 extension: macros need not
// be fanout free — a feeder is absorbable whenever its *entire* fanout
// lies inside the growing macro, so reconvergent regions collapse too and
// more stuck-at faults become functional faults.
func ExtractReconvergent(c *netlist.Circuit, maxInputs int) (*Plan, error) {
	return extract(c, maxInputs, true)
}

func extract(c *netlist.Circuit, maxInputs int, reconvergent bool) (*Plan, error) {
	if maxInputs < 2 {
		return nil, fmt.Errorf("macro: maxInputs %d < 2", maxInputs)
	}
	if maxInputs > TableMaxInputs+8 {
		maxInputs = TableMaxInputs + 8
	}
	p := newPlan(c)

	absorbed := make([]bool, len(c.Gates))
	// Natural roots: observable gates and gates feeding non-combinational
	// consumers. In fanout-free mode every multi-fanout gate is also a
	// root; in reconvergent mode such gates may be absorbed whenever all
	// their consumers land in one macro.
	isRoot := make([]bool, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.IsSource() {
			continue
		}
		fanout := c.Fanout(netlist.GateID(i))
		if g.PO || len(fanout) == 0 {
			isRoot[i] = true
			continue
		}
		if !reconvergent && len(fanout) != 1 {
			isRoot[i] = true
			continue
		}
		for _, fo := range fanout {
			if c.Gate(fo).IsSource() { // feeds a DFF D pin
				isRoot[i] = true
				break
			}
		}
	}
	// Grow macros from the natural roots; any gate left unabsorbed after a
	// pass becomes a root itself (leaf-cap cuts, or consumers spanning
	// several macros), so iterate to fixpoint.
	for {
		for i := range c.Gates {
			if isRoot[i] && p.ByRoot[i] == nil {
				p.ByRoot[i] = growMacro(c, netlist.GateID(i), maxInputs, isRoot, absorbed, reconvergent)
			}
		}
		// Promote orphans (combinational, not absorbed, not rooted) — but
		// only those whose consumers are all assigned already (absorbed, a
		// root, or a DFF). Such a gate can never be absorbed later (its
		// consumers span macros, or the leaf cap cut it), so rooting it is
		// final; holding back the rest lets them be absorbed into the new
		// roots' macros on the next pass, keeping macros maximal. The
		// highest-level orphan always qualifies, so each pass progresses.
		orphan := false
		for i := range c.Gates {
			g := &c.Gates[i]
			if g.IsSource() || absorbed[i] || isRoot[i] {
				continue
			}
			ready := true
			for _, fo := range c.Fanout(netlist.GateID(i)) {
				fog := c.Gate(fo)
				if !fog.IsSource() && !absorbed[fo] && !isRoot[fo] {
					ready = false
					break
				}
			}
			if ready {
				isRoot[i] = true
				orphan = true
			}
		}
		if !orphan {
			break
		}
	}
	p.finish(true)
	return p, nil
}

// growMacro grows the region rooted at root: the fanout-free cone, or —
// in reconvergent mode — any feeder whose whole fanout lies inside the
// region.
func growMacro(c *netlist.Circuit, root netlist.GateID, maxInputs int, isRoot, absorbed []bool, reconvergent bool) *Macro {
	members := map[netlist.GateID]bool{root: true}
	var leaves []netlist.GateID
	leafSet := map[netlist.GateID]bool{}
	addLeaf := func(g netlist.GateID) {
		if !leafSet[g] {
			leafSet[g] = true
			leaves = append(leaves, g)
		}
	}
	for _, f := range c.Fanin(root) {
		addLeaf(f)
	}
	// Absorb leaves while the cap permits. Work queue order is
	// deterministic (slice order).
	for changed := true; changed; {
		changed = false
		for li := 0; li < len(leaves); li++ {
			cand := leaves[li]
			if c.Gate(cand).IsSource() || isRoot[cand] || absorbed[cand] {
				continue
			}
			fanout := c.Fanout(cand)
			if !reconvergent && len(fanout) != 1 {
				continue
			}
			inside := true
			for _, fo := range fanout {
				if !members[fo] {
					inside = false
					break
				}
			}
			if !inside {
				continue // some consumer is outside this region
			}
			// Tentative new leaf set.
			newCount := len(leaves) - 1
			fresh := 0
			for _, f := range c.Fanin(cand) {
				if !leafSet[f] || f == cand {
					fresh++
				}
			}
			if newCount+fresh > maxInputs {
				continue
			}
			// Absorb: remove cand from leaves, add its fanins.
			leaves = append(leaves[:li], leaves[li+1:]...)
			delete(leafSet, cand)
			members[cand] = true
			absorbed[cand] = true
			for _, f := range c.Fanin(cand) {
				addLeaf(f)
			}
			changed = true
			li = -1 // restart scan after mutation
		}
	}
	return compile(c, root, members, leaves)
}

// compile orders the member gates topologically and emits the instruction
// sequence.
func compile(c *netlist.Circuit, root netlist.GateID, members map[netlist.GateID]bool, leaves []netlist.GateID) *Macro {
	order := make([]netlist.GateID, 0, len(members))
	for g := range members {
		order = append(order, g)
	}
	sort.Slice(order, func(a, b int) bool {
		la, lb := c.Gate(order[a]).Level, c.Gate(order[b]).Level
		if la != lb {
			return la < lb
		}
		return order[a] < order[b]
	})
	m := &Macro{Root: root, Leaves: leaves, gateInstr: make(map[netlist.GateID]int32, len(order))}
	slot := make(map[netlist.GateID]int32, len(leaves)+len(order))
	for i, l := range leaves {
		slot[l] = int32(i)
	}
	for i, g := range order {
		gg := c.Gate(g)
		fanin := c.Fanin(g)
		args := make([]int32, len(fanin))
		for j, f := range fanin {
			s, ok := slot[f]
			if !ok {
				panic(fmt.Sprintf("macro: operand %s of %s unresolved", c.Gate(f).Name, gg.Name))
			}
			args[j] = s
		}
		out := int32(len(leaves) + i)
		slot[g] = out
		m.gateInstr[g] = int32(i)
		m.Prog = append(m.Prog, Instr{Op: gg.Op, Gate: g, Args: args, Out: out})
	}
	if m.Prog[len(m.Prog)-1].Gate != root {
		panic("macro: root is not the last instruction")
	}
	return m
}

func newPlan(c *netlist.Circuit) *Plan {
	p := &Plan{
		C:         c,
		Owner:     make([]netlist.GateID, len(c.Gates)),
		ByRoot:    make([]*Macro, len(c.Gates)),
		RootLevel: make([]int32, len(c.Gates)),
	}
	for i := range p.Owner {
		p.Owner[i] = netlist.GateID(i)
	}
	return p
}

// finish fills Owner, computes macro levels and optionally builds tables.
func (p *Plan) finish(tables bool) {
	c := p.C
	for id, m := range p.ByRoot {
		if m == nil {
			continue
		}
		for g := range m.gateInstr {
			p.Owner[g] = netlist.GateID(id)
		}
		if tables {
			m.buildTable()
		}
		if fs := m.FrameSize(); fs > p.MaxFrame {
			p.MaxFrame = fs
		}
	}
	// Macro levels: longest-path over the macro graph.
	// Iterate in original level order of roots; a root's leaves are
	// sources or roots with strictly lower original level, so one pass in
	// ascending original-level order suffices.
	roots := make([]netlist.GateID, 0, len(c.Gates))
	for id, m := range p.ByRoot {
		if m != nil {
			roots = append(roots, netlist.GateID(id))
		}
	}
	sort.Slice(roots, func(a, b int) bool {
		la, lb := c.Gate(roots[a]).Level, c.Gate(roots[b]).Level
		if la != lb {
			return la < lb
		}
		return roots[a] < roots[b]
	})
	p.MaxLevel = 0
	for _, r := range roots {
		lvl := int32(0)
		for _, l := range p.ByRoot[r].Leaves {
			if ll := p.RootLevel[l]; ll >= lvl {
				lvl = ll + 1
			}
		}
		if lvl == 0 {
			lvl = 1
		}
		p.RootLevel[r] = lvl
		if lvl > p.MaxLevel {
			p.MaxLevel = lvl
		}
	}
	p.Levels = make([][]netlist.GateID, p.MaxLevel+1)
	for _, r := range roots {
		p.Levels[p.RootLevel[r]] = append(p.Levels[p.RootLevel[r]], r)
	}
	// Consistency: every combinational gate must be owned by a macro.
	for i := range c.Gates {
		if c.Gates[i].IsSource() {
			continue
		}
		own := p.Owner[i]
		if p.ByRoot[own] == nil || !p.ByRoot[own].Contains(netlist.GateID(i)) {
			panic(fmt.Sprintf("macro: gate %s not covered by any macro", c.Gates[i].Name))
		}
	}
}
