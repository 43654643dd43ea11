// Package netlist models gate-level synchronous sequential circuits in the
// ISCAS-89 style: primary inputs, primary outputs, D flip-flops and
// combinational gates. It provides a builder, a .bench reader/writer,
// levelization, wide-gate decomposition and structural statistics.
//
// A circuit here is the substrate everything else runs on: the good-machine
// simulator, the concurrent fault simulator, the PROOFS baseline and the
// test generator all consume this representation.
package netlist

import (
	"fmt"

	"repro/internal/logic"
)

// GateID indexes a gate within its circuit. IDs are dense, starting at 0.
type GateID int32

// NoGate is the invalid gate ID.
const NoGate GateID = -1

// Gate is one node of the circuit graph. INPUT gates have no fanin; DFF
// gates have exactly one fanin (the D line) and act as level-0 sources for
// combinational levelization. Gates live in the shared Circuit arena, so
// they are as frozen as the Circuit that holds them.
//
// Fanin and Fanout are windows onto two arrays the whole circuit shares,
// each as long as its window and no longer: they are read, never appended
// to in place (an append copies the list out of the array). Name is a
// window onto one string holding every gate name of the circuit.
//
// The fields are ordered widest first, so a gate is 72 bytes.
//
//simlint:immutable
type Gate struct {
	Name   string
	Fanin  []GateID
	Fanout []GateID
	Level  int32 // combinational level; 0 for PIs and DFFs
	Op     logic.Op
	PO     bool // the gate's output line is a primary output
}

// IsSource reports whether the gate is a combinational source (PI or DFF).
func (g *Gate) IsSource() bool {
	return g.Op == logic.OpInput || g.Op == logic.OpDFF
}

// Circuit is an immutable levelized gate network. Construct one with a
// Builder or the .bench parser.
//
//simlint:immutable
type Circuit struct {
	Name  string
	Gates []Gate

	PIs  []GateID // OpInput gates, in declaration order
	POs  []GateID // driver gates of primary output lines, in declaration order
	DFFs []GateID // OpDFF gates, in declaration order

	// Levels[l] lists the combinational gates at level l (l >= 1).
	// Level 0 (sources) is PIs plus DFFs.
	Levels   [][]GateID
	MaxLevel int32
}

// NumGates returns the total node count including PIs and DFFs.
func (c *Circuit) NumGates() int { return len(c.Gates) }

// Gate returns the gate with the given ID.
func (c *Circuit) Gate(id GateID) *Gate { return &c.Gates[id] }

// ByName looks a gate up by its signal name. It scans the gates: a
// circuit keeps no name index, since no simulation path looks a name up.
// It is for tests and tools; a caller resolving many names builds its own
// map once.
func (c *Circuit) ByName(name string) (GateID, bool) {
	for i := range c.Gates {
		if c.Gates[i].Name == name {
			return GateID(i), true
		}
	}
	return NoGate, false
}

// MustByName is ByName for tests: it panics if the name is absent.
func (c *Circuit) MustByName(name string) GateID {
	id, ok := c.ByName(name)
	if !ok {
		panic(fmt.Sprintf("netlist: no gate named %q in %s", name, c.Name))
	}
	return id
}

// PinOf returns the input-pin index of gate `from` within gate `to`'s
// fanin list, or -1 if not connected.
func (c *Circuit) PinOf(to, from GateID) int {
	for i, f := range c.Gates[to].Fanin {
		if f == from {
			return i
		}
	}
	return -1
}

// Stats summarizes circuit structure, matching the columns of the paper's
// Table 2 (gates, flip-flops) plus levelization depth.
type Stats struct {
	Name     string
	PIs      int
	POs      int
	DFFs     int
	Gates    int // combinational gates (everything except INPUT and DFF)
	Ops      map[logic.Op]int
	MaxLevel int
	Fanouts  int // total fanout edge count
	MaxFanin int
}

// Stats computes structural statistics.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Name: c.Name, PIs: len(c.PIs), POs: len(c.POs), DFFs: len(c.DFFs),
		Ops: make(map[logic.Op]int), MaxLevel: int(c.MaxLevel),
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		s.Ops[g.Op]++
		s.Fanouts += len(g.Fanout)
		if !g.IsSource() {
			s.Gates++
		}
		if len(g.Fanin) > s.MaxFanin {
			s.MaxFanin = len(g.Fanin)
		}
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d DFF, %d gates, depth %d",
		s.Name, s.PIs, s.POs, s.DFFs, s.Gates, s.MaxLevel)
}
