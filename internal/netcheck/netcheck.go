// Package netcheck verifies model-level invariants of circuits, macro
// plans and fault universes: the structural well-formedness every
// simulator in this repository assumes but none re-validates on its hot
// path. It backs `cmd/csim -check`, the differential tests' debug hooks,
// and the CI sweep over the bundled ISCAS benchmarks.
package netcheck

import (
	"fmt"
	"slices"
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
	if !inRange(id, len(c.Gates)) {
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
			if !inRange(f, len(c.Gates)) {
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

// inRange reports whether id indexes one of n gates.
func inRange(id netlist.GateID, n int) bool { return id >= 0 && int(id) < n }

// checkEdges verifies the fanin and fanout adjacency lists mirror each
// other exactly, with matching edge multiplicity: the fanin references are
// grouped by driver, and each driver's group is compared, as a multiset of
// consumers, with the driver's own Fanout list.
func checkEdges(c *netlist.Circuit) []Problem {
	var ps []Problem
	n := len(c.Gates)
	// readers[ends[d]:ends[d+1]] lists, after the fill below, the gates
	// that name d as a fanin, once per reference.
	ends := make([]int32, n+1)
	refs := 0
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			if inRange(f, n) {
				ends[f+1]++
				refs++
			}
		}
	}
	for d := 0; d < n; d++ {
		ends[d+1] += ends[d]
	}
	readers := make([]netlist.GateID, refs)
	next := make([]int32, n)
	copy(next, ends)
	for i := range c.Gates {
		for _, f := range c.Gates[i].Fanin {
			if inRange(f, n) {
				readers[next[f]] = netlist.GateID(i)
				next[f]++
			}
		}
	}
	// down[t] and up[t] count, for the driver at hand, its references from
	// t's Fanin and to t in its own Fanout; both are all zero between
	// drivers.
	down, up := make([]int32, n), make([]int32, n)
	for d := range c.Gates {
		id := netlist.GateID(d)
		in := readers[ends[d]:ends[d+1]]
		for _, t := range in {
			down[t]++
		}
		for _, t := range c.Gates[d].Fanout {
			if !inRange(t, n) {
				ps = append(ps, Problem{"bad-edge",
					fmt.Sprintf("%s has out-of-range fanout %d", c.Gates[d].Name, t)})
				continue
			}
			up[t]++
		}
		for _, t := range in {
			if down[t] == 0 {
				continue // a repeated reference, reported at the first
			}
			if up[t] != down[t] {
				ps = append(ps, Problem{"edge-mirror",
					fmt.Sprintf("%s->%s: %d fanin reference(s) but %d fanout reference(s)",
						gname(c, id), gname(c, t), down[t], up[t])})
			}
			down[t], up[t] = 0, 0
		}
		for _, t := range c.Gates[d].Fanout {
			if inRange(t, n) && up[t] != 0 {
				ps = append(ps, Problem{"edge-mirror",
					fmt.Sprintf("%s->%s: %d fanout reference(s) but no fanin reference",
						gname(c, id), gname(c, t), up[t])})
				up[t] = 0
			}
		}
	}
	return sortProblems(ps)
}

// checkIndexes verifies the PI/PO/DFF index lists agree with per-gate ops
// and flags.
func checkIndexes(c *netlist.Circuit) []Problem {
	var ps []Problem
	n := len(c.Gates)
	const inPIs, inDFFs, inPOs = 1, 2, 4
	listed := make([]uint8, n) // which of the three lists name the gate
	for _, pi := range c.PIs {
		if inRange(pi, n) {
			listed[pi] |= inPIs
			if c.Gate(pi).Op == logic.OpInput {
				continue
			}
		}
		ps = append(ps, Problem{"index",
			fmt.Sprintf("PIs lists %s, which is not an INPUT gate", gname(c, pi))})
	}
	for _, ff := range c.DFFs {
		if inRange(ff, n) {
			listed[ff] |= inDFFs
			if c.Gate(ff).Op == logic.OpDFF {
				continue
			}
		}
		ps = append(ps, Problem{"index",
			fmt.Sprintf("DFFs lists %s, which is not a DFF gate", gname(c, ff))})
	}
	for _, po := range c.POs {
		if inRange(po, n) {
			listed[po] |= inPOs
			if c.Gate(po).PO {
				continue
			}
		}
		ps = append(ps, Problem{"index",
			fmt.Sprintf("POs lists %s, which is not flagged PO", gname(c, po))})
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Op == logic.OpInput && listed[i]&inPIs == 0 {
			ps = append(ps, Problem{"index", fmt.Sprintf("INPUT gate %s missing from PIs", g.Name)})
		}
		if g.Op == logic.OpDFF && listed[i]&inDFFs == 0 {
			ps = append(ps, Problem{"index", fmt.Sprintf("DFF gate %s missing from DFFs", g.Name)})
		}
		if g.PO && listed[i]&inPOs == 0 {
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
	seen := make([]bool, len(c.Gates))
	var stray []netlist.GateID // bucketed IDs that index no gate
	for l, bucket := range c.Levels {
		for _, id := range bucket {
			if !inRange(id, len(c.Gates)) {
				if slices.Contains(stray, id) {
					ps = append(ps, Problem{"level",
						fmt.Sprintf("gate %s appears in Levels twice", gname(c, id))})
				}
				stray = append(stray, id)
				continue
			}
			if seen[id] {
				ps = append(ps, Problem{"level",
					fmt.Sprintf("gate %s appears in Levels twice", gname(c, id))})
			}
			seen[id] = true
			if int(c.Gate(id).Level) != l {
				ps = append(ps, Problem{"level",
					fmt.Sprintf("gate %s bucketed at level %d but has Level %d",
						gname(c, id), l, c.Gate(id).Level)})
			}
		}
	}
	for i := range c.Gates {
		if !c.Gates[i].IsSource() && !seen[i] {
			ps = append(ps, Problem{"level",
				fmt.Sprintf("gate %s missing from Levels buckets", c.Gates[i].Name)})
		}
	}
	return ps
}

// sortProblems orders the edge report by text, whichever adjacency list a
// problem was found on.
func sortProblems(ps []Problem) []Problem {
	for i := 1; i < len(ps); i++ {
		for j := i; j > 0 && ps[j].String() < ps[j-1].String(); j-- {
			ps[j], ps[j-1] = ps[j-1], ps[j]
		}
	}
	return ps
}
