// Package compiled implements csim-C, the compiled bit-parallel
// simulation backend. A circuit is compiled once into branch-free,
// levelized straight-line evaluation over flat structure-of-arrays
// word storage: the per-cycle hot path walks dense int32 arrays and
// packed uint64 bit-planes instead of interpreting netlist arenas.
//
// Three artifacts come out of one compilation:
//
//   - Program: the immutable compiled form — the level-ordered gate
//     list lowered to a fused two-input instruction stream (one table
//     lookup per step, wide gates decomposed into chains), the
//     observable gates, and the combinational fanout and DFF maps cut
//     to them. Fanins are read straight off the circuit's own
//     adjacency arrays.
//   - Trace: the packed good-machine waveform. The good machine runs
//     cycle-serially (the state recurrence of a sequential circuit
//     admits no 64-cycle shortcut) but deposits every gate's settled
//     value as one bit-column per cycle, so 64 cycles of every signal
//     occupy two uint64 bit-planes per gate.
//   - Sim: the fault simulator. Each fault is re-evaluated 64 vectors
//     per pass against the packed trace, restricted to the fault's
//     output cone by event-driven plane propagation over one
//     cache-line-sized node per gate. Faults go in chunks of 256 that
//     workers pull off a shared counter, all reading the one trace;
//     detection is reduced into the standard faults.Result /
//     csim.Stats types so merging and sharding machinery compose
//     unchanged.
//
// Detection semantics are bit-identical to internal/serial (and thus
// to csim): DESIGN.md §12 gives the argument.
package compiled

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Opcodes for compiled gate evaluation. Even codes are the base
// (non-inverting) functions; code|1 is the complemented form, so
// code&^1 recovers the base and code&1 the inversion — the plane
// evaluator computes the base function and swaps bit-planes to invert.
const (
	opBuf uint8 = iota
	opNot
	opAnd
	opNand
	opOr
	opNor
	opXor
	opXnor
)

// sop is one fused two-input step of the scalar straight-line program:
// val[out] = scalarTab[tbl][val[x]<<2|val[y]]. Gates with more than two
// inputs are decomposed at compile time into a chain of sops that
// accumulate into val[out] (legal in level order: nothing reads out
// before its last sop retires), so the evaluator is a single loop with
// no per-gate arity branch — every iteration is two value loads, one
// table load and one store.
type sop struct {
	out, x, y int32
	tbl       uint8
}

// Program is a circuit compiled for csim-C. It is immutable once
// Compile returns — every evaluation method works on caller-owned or
// Sim-owned scratch — so one Program may back any number of
// concurrently running simulators, exactly like a shared macro.Plan.
//
//simlint:immutable
type Program struct {
	c *netlist.Circuit

	// scode is the non-source gates, in ascending level order, lowered to
	// fused two-input scalar instructions; nEval counts those gates, the
	// evaluations one cycle of it performs.
	scode []sop
	nEval int64

	// code holds the compiled opcode per gate (sources keep opBuf,
	// never evaluated).
	code []uint8

	// fanins is the circuit's Fanins, not a copy: gate g's inputs are
	// fanins[c.FaninOff[g]:c.FaninOff[g+1]]. The kernel reads them
	// through this one header.
	fanins []netlist.GateID

	// observable marks the gates some primary output can see: the
	// backward closure of c.POs over every fanin, flip-flop D pins
	// included. Every fanin of an observable gate is observable, so
	// nothing an unobservable gate does ever reaches an output.
	observable []bool

	// Observable combinational fanout (the circuit's, source consumers
	// and unobservable gates excluded): fanouts[fanoutOff[g]:fanoutOff[g+1]].
	fanoutOff []int32
	fanouts   []netlist.GateID

	// Flattened DFF adjacency: fedFFs[fedOff[g]:fedOff[g+1]] are the
	// indices (into c.DFFs) of the observable flip-flops whose D input is
	// driven by g.
	fedOff []int32
	fedFFs []int32

	// dffD maps a DFF index to its D-input driver gate; dffIdx maps a
	// gate to its DFF index, or -1.
	dffD   []netlist.GateID
	dffIdx []int32

	maxLevel int32
}

// Circuit returns the compiled circuit.
func (p *Program) Circuit() *netlist.Circuit { return p.c }

// opcode compiles one netlist operation. Sources are never evaluated;
// OUTPUT markers have buffer semantics.
func opcode(op logic.Op) uint8 {
	switch op {
	case logic.OpBuf, logic.OpOutput, logic.OpInput, logic.OpDFF:
		return opBuf
	case logic.OpNot:
		return opNot
	case logic.OpAnd:
		return opAnd
	case logic.OpNand:
		return opNand
	case logic.OpOr:
		return opOr
	case logic.OpNor:
		return opNor
	case logic.OpXor:
		return opXor
	case logic.OpXnor:
		return opXnor
	}
	return opBuf
}

// Compile lowers a levelized circuit into its compiled form. Every
// array it keeps is allocated once, at its exact length.
func Compile(c *netlist.Circuit) *Program {
	ng := len(c.Gates)
	p := &Program{
		c:         c,
		code:      make([]uint8, ng),
		fanins:    c.Fanins,
		fanoutOff: make([]int32, ng+1),
		fedOff:    make([]int32, ng+1),
		maxLevel:  c.MaxLevel,
		dffD:      make([]netlist.GateID, len(c.DFFs)),
		dffIdx:    make([]int32, ng),
	}
	for i := range p.dffIdx {
		p.dffIdx[i] = -1
	}
	for i, ff := range c.DFFs {
		p.dffD[i] = c.Fanin(ff)[0]
		p.dffIdx[ff] = int32(i)
	}

	p.observable = observable(c)

	// The circuit's observable fanout, split into combinational consumers
	// and the flip-flops it feeds; opcodes; and the length of the
	// instruction stream: a gate of n inputs lowers to max(n-1, 1) sops.
	nfed, nfan, nsop := 0, 0, 0
	for _, fo := range c.Fanouts {
		switch {
		case !p.observable[fo]:
		case c.Gate(fo).IsSource():
			nfed++
		default:
			nfan++
		}
	}
	p.fanouts = make([]netlist.GateID, 0, nfan)
	p.fedFFs = make([]int32, 0, nfed)
	for i := range c.Gates {
		p.code[i] = opcode(c.Gates[i].Op)
		if !c.Gates[i].IsSource() {
			nsop += max(len(c.Fanin(netlist.GateID(i)))-1, 1)
		}
		p.fanoutOff[i] = int32(len(p.fanouts))
		p.fedOff[i] = int32(len(p.fedFFs))
		for _, fo := range c.Fanout(netlist.GateID(i)) {
			switch {
			case !p.observable[fo]:
			case c.Gate(fo).IsSource():
				p.fedFFs = append(p.fedFFs, p.dffIdx[fo])
			default:
				p.fanouts = append(p.fanouts, fo)
			}
		}
	}
	p.fanoutOff[ng] = int32(len(p.fanouts))
	p.fedOff[ng] = int32(len(p.fedFFs))

	// Lower the non-source gates, level by level, to the fused scalar
	// instruction stream.
	p.scode = make([]sop, 0, nsop)
	for _, lv := range c.Levels[1:] {
		for _, g := range lv {
			p.scode = lowerScalar(p.scode, p.code[g], int32(g), c.Fanin(g))
			p.nEval++
		}
	}

	return p
}

// observable returns the gates from which some primary output can be
// reached, combinationally or through flip-flops: a backward walk from
// the outputs over every fanin, a flip-flop's D pin included.
func observable(c *netlist.Circuit) []bool {
	obs := make([]bool, len(c.Gates))
	stack := make([]netlist.GateID, 0, len(c.POs))
	for _, po := range c.POs {
		if !obs[po] {
			obs[po] = true
			stack = append(stack, po)
		}
	}
	for len(stack) > 0 {
		g := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, in := range c.Fanin(g) {
			if !obs[in] {
				obs[in] = true
				stack = append(stack, in)
			}
		}
	}
	return obs
}

// fanin returns g's inputs: the circuit's FaninOff window.
func (p *Program) fanin(g netlist.GateID) []netlist.GateID {
	return p.fanins[p.c.FaninOff[g]:p.c.FaninOff[g+1]]
}

// fed returns the indices of the observable DFFs whose D input g drives.
func (p *Program) fed(g netlist.GateID) []int32 {
	return p.fedFFs[p.fedOff[g]:p.fedOff[g+1]]
}

// feedsFF reports whether any observable flip-flop samples g.
func (p *Program) feedsFF(g netlist.GateID) bool {
	return p.fedOff[g+1] > p.fedOff[g]
}

// scalarTab holds the two-input ternary function tables of every
// opcode, indexed scalarTab[op][a<<2|b]. opBuf and opNot ignore b, so
// single-input sops pass x for both operands.
var scalarTab [8][16]logic.V

func init() {
	for i := 0; i < 16; i++ {
		a, b := logic.V(i>>2), logic.V(i&3)
		scalarTab[opBuf][i] = a
		scalarTab[opNot][i] = a.Not()
		scalarTab[opAnd][i] = logic.And2(a, b)
		scalarTab[opNand][i] = logic.And2(a, b).Not()
		scalarTab[opOr][i] = logic.Or2(a, b)
		scalarTab[opNor][i] = logic.Or2(a, b).Not()
		scalarTab[opXor][i] = logic.Xor2(a, b)
		scalarTab[opXnor][i] = logic.Xor2(a, b).Not()
	}
}

// lowerScalar appends one gate's fused two-input sops to ops. Arity one
// reduces to a buffer or inverter of the single input; arity two maps
// directly; wider gates chain the base (non-inverting) function
// through val[out] and fold any output inversion into the final link.
// ins is never empty: the Builder gives every non-source gate an input.
func lowerScalar(ops []sop, code uint8, out int32, ins []netlist.GateID) []sop {
	switch len(ins) {
	case 1:
		// AND/OR/XOR of one input is the input; the inversion bit
		// (code&1) picks buffer vs inverter.
		x := int32(ins[0])
		return append(ops, sop{out: out, x: x, y: x, tbl: opBuf | code&1})
	case 2:
		return append(ops, sop{out: out, x: int32(ins[0]), y: int32(ins[1]), tbl: code})
	}
	base := code &^ 1
	ops = append(ops, sop{out: out, x: int32(ins[0]), y: int32(ins[1]), tbl: base})
	for _, f := range ins[2 : len(ins)-1] {
		ops = append(ops, sop{out: out, x: out, y: int32(f), tbl: base})
	}
	// The last link applies the full opcode, inversion included:
	// NAND(a,b,c) = NAND(AND(a,b), c).
	return append(ops, sop{out: out, x: out, y: int32(ins[len(ins)-1]), tbl: code})
}

// evalScalar runs one full straight-line evaluation of the
// combinational network over val (indexed by gate): the lowered
// instruction stream in level order, one table lookup per step.
func (p *Program) evalScalar(val []logic.V) {
	for _, in := range p.scode {
		val[in.out] = scalarTab[in.tbl][int(val[in.x])<<2|int(val[in.y])]
	}
}
