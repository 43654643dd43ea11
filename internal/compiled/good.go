package compiled

import (
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// Good is the compiled good-machine simulator: per cycle it runs the
// straight-line whole-network evaluator over a flat value array.
// Semantics match goodsim.Sim on every gate.
type Good struct {
	p    *Program
	val  []logic.V
	next []logic.V

	// Evals counts gate evaluations performed.
	Evals int64
}

// NewGood builds a good-machine simulator over the compiled program,
// with every signal initialized to X.
func (p *Program) NewGood() *Good {
	g := &Good{
		p:    p,
		val:  make([]logic.V, len(p.c.Gates)),
		next: make([]logic.V, len(p.c.DFFs)),
	}
	g.Reset()
	return g
}

// Reset returns every signal, including flip-flop state, to X.
func (g *Good) Reset() {
	for i := range g.val {
		g.val[i] = logic.X
	}
}

// Val returns the current value of a gate's output line.
func (g *Good) Val(id netlist.GateID) logic.V { return g.val[id] }

// Outputs copies the current primary-output values into dst
// (allocating if nil) and returns it.
func (g *Good) Outputs(dst []logic.V) []logic.V {
	if dst == nil {
		dst = make([]logic.V, len(g.p.c.POs))
	}
	for i, po := range g.p.c.POs {
		dst[i] = g.val[po]
	}
	return dst
}

// Cycle runs one full clock cycle: assert vec on the primary inputs,
// evaluate the compiled network, then latch the flip-flops. The
// settled PO values are readable through Outputs before the next call.
func (g *Good) Cycle(vec []logic.V) {
	p := g.p
	for i, pi := range p.c.PIs {
		g.val[pi] = vec[i].Norm()
	}
	p.evalScalar(g.val)
	g.Evals += p.nEval
	for i := range p.c.DFFs {
		g.next[i] = g.val[p.dffD[i]]
	}
	for i, ff := range p.c.DFFs {
		g.val[ff] = g.next[i]
	}
}

// Run simulates the whole vector sequence from the all-X state.
func (g *Good) Run(vs *vectors.Set) {
	g.Reset()
	for t := 0; t < vs.Len(); t++ {
		g.Cycle(vs.Vecs[t])
	}
}
