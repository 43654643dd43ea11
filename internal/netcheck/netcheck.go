// Package netcheck verifies model-level invariants of circuits, macro
// plans and fault universes: the structural well-formedness every
// simulator in this repository assumes but none re-validates on its hot
// path. It backs `cmd/csim -check`, the differential tests' debug hooks,
// and the CI sweep over the bundled ISCAS benchmarks.
package netcheck

import (
	"fmt"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Problem is one invariant violation, tagged with the check that found it.
type Problem struct {
	Check  string // short check name, e.g. "comb-loop"
	Detail string
}

func (p Problem) String() string { return p.Check + ": " + p.Detail }

// AsError folds a problem list into a single error, or nil if empty.
func AsError(ps []Problem) error {
	if len(ps) == 0 {
		return nil
	}
	var b strings.Builder
	fmt.Fprintf(&b, "netcheck: %d problem(s)", len(ps))
	for _, p := range ps {
		b.WriteString("\n  ")
		b.WriteString(p.String())
	}
	return fmt.Errorf("%s", b.String())
}

// Check runs every structural circuit check and returns the problems
// found: driver arity and op arity, fanin/fanout edge mirroring, index
// table consistency, combinational loops, and level monotonicity.
// Pinned by benchmark/; goes with ROADMAP item 3's [benchmark] refresh.
func Check(c *netlist.Circuit) []Problem {
	var ps []Problem
	ps = append(ps, checkDrivers(c)...)
	ps = append(ps, checkEdges(c)...)
	ps = append(ps, checkIndexes(c)...)
	// Loop detection needs sane edges; skip on broken graphs.
	if len(ps) == 0 {
		ps = append(ps, checkCombLoops(c)...)
		ps = append(ps, checkLevels(c)...)
	}
	return ps
}

func gname(c *netlist.Circuit, id netlist.GateID) string {
	if id < 0 || int(id) >= len(c.Gates) {
		return fmt.Sprintf("#%d", id)
	}
	return c.Gate(id).Name
}

// checkDrivers verifies every net has exactly the drivers its op allows:
// INPUT gates are undriven by definition, everything else needs fanin
// (undriven net), and no op accepts more fanins than its arity (the
// graph model's form of a multiply-driven net).
func checkDrivers(c *netlist.Circuit) []Problem {
	var ps []Problem
	for i := range c.Gates {
		g := &c.Gates[i]
		for _, f := range g.Fanin {
			if f < 0 || int(f) >= len(c.Gates) {
				ps = append(ps, Problem{"bad-edge",
					fmt.Sprintf("%s has out-of-range fanin %d", g.Name, f)})
			}
		}
		if g.Op == logic.OpInput {
			if len(g.Fanin) != 0 {
				ps = append(ps, Problem{"multiply-driven",
					fmt.Sprintf("input %s is driven by %d gate(s)", g.Name, len(g.Fanin))})
			}
			continue
		}
		if len(g.Fanin) == 0 {
			ps = append(ps, Problem{"undriven",
				fmt.Sprintf("%s (%v) has no fanin", g.Name, g.Op)})
			continue
		}
		if !netlist.ArityOK(g.Op, len(g.Fanin)) {
			ps = append(ps, Problem{"arity",
				fmt.Sprintf("%s: %v cannot take %d input(s)", g.Name, g.Op, len(g.Fanin))})
		}
	}
	return ps
}

// checkEdges verifies the fanin and fanout adjacency lists mirror each
// other exactly, with matching edge multiplicity.
func checkEdges(c *netlist.Circuit) []Problem {
	var ps []Problem
	type edge struct{ from, to netlist.GateID }
	down := map[edge]int{} // from fanin lists
	up := map[edge]int{}   // from fanout lists
	for i := range c.Gates {
		id := netlist.GateID(i)
		for _, f := range c.Gates[i].Fanin {
			if f >= 0 && int(f) < len(c.Gates) {
				down[edge{f, id}]++
			}
		}
		for _, t := range c.Gates[i].Fanout {
			if t < 0 || int(t) >= len(c.Gates) {
				ps = append(ps, Problem{"bad-edge",
					fmt.Sprintf("%s has out-of-range fanout %d", c.Gates[i].Name, t)})
				continue
			}
			up[edge{id, t}]++
		}
	}
	for e, n := range down {
		if up[e] != n {
			ps = append(ps, Problem{"edge-mirror",
				fmt.Sprintf("%s->%s: %d fanin reference(s) but %d fanout reference(s)",
					gname(c, e.from), gname(c, e.to), n, up[e])})
		}
	}
	for e, n := range up {
		if _, ok := down[e]; !ok {
			ps = append(ps, Problem{"edge-mirror",
				fmt.Sprintf("%s->%s: %d fanout reference(s) but no fanin reference",
					gname(c, e.from), gname(c, e.to), n)})
		}
	}
	return sortProblems(ps)
}

// checkIndexes verifies the PI/PO/DFF index lists agree with per-gate ops
// and flags.
func checkIndexes(c *netlist.Circuit) []Problem {
	var ps []Problem
	inPIs := map[netlist.GateID]bool{}
	for _, pi := range c.PIs {
		inPIs[pi] = true
		if int(pi) >= len(c.Gates) || c.Gate(pi).Op != logic.OpInput {
			ps = append(ps, Problem{"index",
				fmt.Sprintf("PIs lists %s, which is not an INPUT gate", gname(c, pi))})
		}
	}
	inDFFs := map[netlist.GateID]bool{}
	for _, ff := range c.DFFs {
		inDFFs[ff] = true
		if int(ff) >= len(c.Gates) || c.Gate(ff).Op != logic.OpDFF {
			ps = append(ps, Problem{"index",
				fmt.Sprintf("DFFs lists %s, which is not a DFF gate", gname(c, ff))})
		}
	}
	inPOs := map[netlist.GateID]bool{}
	for _, po := range c.POs {
		inPOs[po] = true
		if int(po) >= len(c.Gates) || !c.Gate(po).PO {
			ps = append(ps, Problem{"index",
				fmt.Sprintf("POs lists %s, which is not flagged PO", gname(c, po))})
		}
	}
	for i := range c.Gates {
		id := netlist.GateID(i)
		g := &c.Gates[i]
		if g.Op == logic.OpInput && !inPIs[id] {
			ps = append(ps, Problem{"index", fmt.Sprintf("INPUT gate %s missing from PIs", g.Name)})
		}
		if g.Op == logic.OpDFF && !inDFFs[id] {
			ps = append(ps, Problem{"index", fmt.Sprintf("DFF gate %s missing from DFFs", g.Name)})
		}
		if g.PO && !inPOs[id] {
			ps = append(ps, Problem{"index", fmt.Sprintf("PO-flagged gate %s missing from POs", g.Name)})
		}
	}
	return ps
}

// checkCombLoops finds cycles in the combinational subgraph. Flip-flops
// legally close sequential loops: their D-input edge is sequential, so
// paths through a DFF do not count.
func checkCombLoops(c *netlist.Circuit) []Problem {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]byte, len(c.Gates))
	// Iterative DFS with an explicit stack; on finding a gray successor,
	// the gray stack suffix names the cycle.
	var ps []Problem
	type frame struct {
		g  netlist.GateID
		fi int
	}
	var stack []frame
	for start := range c.Gates {
		if color[start] != white || c.Gates[start].IsSource() {
			continue
		}
		stack = append(stack[:0], frame{netlist.GateID(start), 0})
		color[start] = gray
		for len(stack) > 0 {
			fr := &stack[len(stack)-1]
			g := &c.Gates[fr.g]
			if fr.fi >= len(g.Fanin) {
				color[fr.g] = black
				stack = stack[:len(stack)-1]
				continue
			}
			next := g.Fanin[fr.fi]
			fr.fi++
			if c.Gate(next).IsSource() {
				continue // DFF or PI: sequential/terminal, not part of a comb path
			}
			switch color[next] {
			case white:
				color[next] = gray
				stack = append(stack, frame{next, 0})
			case gray:
				// Collect the cycle from the stack suffix.
				names := []string{gname(c, next)}
				for i := len(stack) - 1; i >= 0 && stack[i].g != next; i-- {
					names = append(names, gname(c, stack[i].g))
				}
				ps = append(ps, Problem{"comb-loop",
					"combinational cycle through " + strings.Join(names, " <- ")})
				return ps // one witness is enough; the graph is unusable anyway
			}
		}
	}
	return ps
}

// checkLevels verifies combinational levelization: sources at level 0,
// every combinational gate at a level strictly above all of its fanins,
// and the Levels buckets/MaxLevel agreeing with per-gate levels.
func checkLevels(c *netlist.Circuit) []Problem {
	var ps []Problem
	var maxSeen int32
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.IsSource() {
			if g.Level != 0 {
				ps = append(ps, Problem{"level",
					fmt.Sprintf("source %s at level %d, want 0", g.Name, g.Level)})
			}
			continue
		}
		if g.Level < 1 {
			ps = append(ps, Problem{"level",
				fmt.Sprintf("gate %s at level %d, want >= 1", g.Name, g.Level)})
		}
		if g.Level > maxSeen {
			maxSeen = g.Level
		}
		for _, f := range g.Fanin {
			fg := c.Gate(f)
			fl := fg.Level
			if fg.IsSource() {
				fl = 0
			}
			if g.Level <= fl {
				ps = append(ps, Problem{"level",
					fmt.Sprintf("gate %s (level %d) not above fanin %s (level %d)",
						g.Name, g.Level, fg.Name, fl)})
			}
		}
	}
	if c.MaxLevel != maxSeen {
		ps = append(ps, Problem{"level",
			fmt.Sprintf("MaxLevel is %d, deepest gate is at %d", c.MaxLevel, maxSeen)})
	}
	seen := map[netlist.GateID]bool{}
	for l, bucket := range c.Levels {
		for _, id := range bucket {
			if seen[id] {
				ps = append(ps, Problem{"level",
					fmt.Sprintf("gate %s appears in Levels twice", gname(c, id))})
			}
			seen[id] = true
			if int(id) < len(c.Gates) && int(c.Gate(id).Level) != l {
				ps = append(ps, Problem{"level",
					fmt.Sprintf("gate %s bucketed at level %d but has Level %d",
						gname(c, id), l, c.Gate(id).Level)})
			}
		}
	}
	for i := range c.Gates {
		if !c.Gates[i].IsSource() && !seen[netlist.GateID(i)] {
			ps = append(ps, Problem{"level",
				fmt.Sprintf("gate %s missing from Levels buckets", c.Gates[i].Name)})
		}
	}
	return ps
}

func sortProblems(ps []Problem) []Problem {
	// Map iteration above makes order nondeterministic; sort for stable
	// output and stable tests.
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].String() < ps[j-1].String(); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps
}
