// Package macro implements the paper's §2.2 macro extraction: maximal
// fanout-free regions of the combinational network are collapsed into
// single macro gates evaluated by table lookup (small macros) or compiled
// cone replay (wide macros). Stuck-at faults internal to a macro become
// functional faults evaluated through per-fault injected replay.
//
// The concurrent simulator always works against a Plan; with extraction
// disabled the Trivial plan makes every gate its own one-instruction macro,
// so both csim variants share one code path.
package macro

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// TableMaxInputs bounds the leaf count for which a full ternary lookup
// table (4^n entries) is precomputed; wider macros replay their cone.
const TableMaxInputs = 6

// DefaultMaxInputs is the default leaf-count cap for extracted macros.
const DefaultMaxInputs = 10

// Instr is one compiled gate of a macro cone. Operand slots index the
// evaluation frame: slots [0,L) hold the macro's leaf values, slot L+i
// holds the output of instruction i.
type Instr struct {
	Op   logic.Op
	Gate netlist.GateID // original gate, for fault-site mapping
	Args []int32
	Out  int32
}

// Macro is one extracted fanout-free region. A Macro is immutable once
// extraction returns — nothing in its evaluation methods writes to the
// receiver — so a Plan may be shared by any number of concurrently
// running simulators.
//
//simlint:immutable
type Macro struct {
	Root   netlist.GateID
	Leaves []netlist.GateID // external driver gates, deduplicated, in first-use order
	Prog   []Instr          // topological order; the root is the last instruction
	Table  []logic.V        // ternary lookup table, nil if len(Leaves) > TableMaxInputs

	gateInstr map[netlist.GateID]int32 // member gate -> Prog index
}

// NumLeaves returns the macro's external input count.
func (m *Macro) NumLeaves() int { return len(m.Leaves) }

// FrameSize returns the scratch-frame length required by Replay.
func (m *Macro) FrameSize() int { return len(m.Leaves) + len(m.Prog) }

// Contains reports whether the original gate g was absorbed into m.
func (m *Macro) Contains(g netlist.GateID) bool {
	_, ok := m.gateInstr[g]
	return ok
}

// tableIndex packs ternary leaf values into a lookup-table index, 2 bits
// per leaf — the index scheme of Table.
func tableIndex(in []logic.V) int {
	idx := 0
	for i, v := range in {
		idx |= int(v) << (2 * i)
	}
	return idx
}

// Eval computes the macro output for the given leaf values. frame must
// have at least FrameSize entries (ignored when a table is present).
func (m *Macro) Eval(in []logic.V, frame []logic.V) logic.V {
	if m.Table != nil {
		return m.Table[tableIndex(in)]
	}
	return m.replay(in, frame, -1, nil)
}

// EvalStuck evaluates the macro with a stuck-at fault injected at the
// original site (gate, pin): pin == faults.OutPin forces the gate output,
// otherwise input pin `pin` is forced to v. Every call replays the cone.
// There is no per-fault lookup table (the paper's "adequate look up table
// entry"): one costs 4^k replays to build, and a Table 3 run reads fewer
// entries than it would build (DESIGN.md §6).
func (m *Macro) EvalStuck(in, frame []logic.V, gate netlist.GateID, pin int, v logic.V) logic.V {
	gi, ok := m.gateInstr[gate]
	if !ok {
		panic(fmt.Sprintf("macro: fault site gate %d not in macro rooted at %d", gate, m.Root))
	}
	return m.replay(in, frame, gi, func(cur logic.V, p int) (logic.V, bool) {
		if p == pin {
			return v, true
		}
		return cur, false
	})
}

// EvalTransition evaluates the macro with a transition fault at (gate,
// pin). prev is the faulty machine's driver value at the previous cycle;
// the returned driver value is the site's driver value in this evaluation
// (the caller stores it as the next cycle's prev).
func (m *Macro) EvalTransition(in, frame []logic.V, gate netlist.GateID, pin int, kind faults.Kind, prev logic.V) (out, driver logic.V) {
	gi, ok := m.gateInstr[gate]
	if !ok {
		panic(fmt.Sprintf("macro: fault site gate %d not in macro rooted at %d", gate, m.Root))
	}
	driver = logic.X
	out = m.replay(in, frame, gi, func(cur logic.V, p int) (logic.V, bool) {
		if p == pin {
			driver = cur
			return faults.TransitionFV(kind, prev, cur), true
		}
		return cur, false
	})
	return out, driver
}

// replay executes the cone. When faultInstr >= 0, inject is consulted for
// each input pin of that instruction (pin >= 0) and once for its output
// (pin == faults.OutPin) to apply fault forcing.
func (m *Macro) replay(in, frame []logic.V, faultInstr int32, inject func(cur logic.V, pin int) (logic.V, bool)) logic.V {
	copy(frame, in)
	var argsArr [logic.MaxPins]logic.V
	args := argsArr[:0]
	for i := range m.Prog {
		ins := &m.Prog[i]
		args = args[:0]
		for p, a := range ins.Args {
			v := frame[a]
			if int32(i) == faultInstr {
				if nv, forced := inject(v, p); forced {
					v = nv
				}
			}
			args = append(args, v)
		}
		out := logic.Eval(ins.Op, args)
		if int32(i) == faultInstr {
			if nv, forced := inject(out, faults.OutPin); forced {
				out = nv
			}
		}
		frame[ins.Out] = out
	}
	return frame[m.Prog[len(m.Prog)-1].Out]
}

// buildTable precomputes the full ternary truth table for small macros.
func (m *Macro) buildTable() {
	n := len(m.Leaves)
	if n > TableMaxInputs || len(m.Prog) == 0 {
		return
	}
	size := 1 << (2 * n)
	tbl := make([]logic.V, size)
	in := make([]logic.V, n)
	frame := make([]logic.V, m.FrameSize())
	for idx := 0; idx < size; idx++ {
		for i := 0; i < n; i++ {
			in[i] = logic.V((idx >> (2 * i)) & logic.VMask).Norm()
		}
		tbl[idx] = m.replay(in, frame, -1, nil)
	}
	m.Table = tbl
}
