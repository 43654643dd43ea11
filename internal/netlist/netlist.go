// Package netlist models gate-level synchronous sequential circuits in the
// ISCAS-89 style: primary inputs, primary outputs, D flip-flops and
// combinational gates. It provides a builder, a .bench reader/writer,
// levelization and structural statistics.
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
// A gate holds no adjacency: its fanin and fanout lists are the
// circuit's (Circuit.Fanin, Circuit.Fanout). Name is a window onto one
// string holding every gate name of the circuit. A gate is 24 bytes.
//
//simlint:immutable
type Gate struct {
	Name  string
	Level int32 // combinational level; 0 for PIs and DFFs
	Op    logic.Op
	PO    bool // the gate's output line is a primary output
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

	// The adjacency, one offsets array and one ID array per direction:
	// gate g's fanins are Fanins[FaninOff[g]:FaninOff[g+1]], its consumers
	// Fanouts[FanoutOff[g]:FanoutOff[g+1]]. Read them through Fanin and
	// Fanout.
	FaninOff  []int32
	Fanins    []GateID
	FanoutOff []int32
	Fanouts   []GateID

	PIs  []GateID // OpInput gates, in declaration order
	POs  []GateID // driver gates of primary output lines, in declaration order
	DFFs []GateID // OpDFF gates, in declaration order

	// Levels[l] lists the combinational gates at level l (l >= 1).
	// Level 0 (sources) is PIs plus DFFs.
	Levels   [][]GateID
	MaxLevel int32
}

// Gate returns the gate with the given ID.
func (c *Circuit) Gate(id GateID) *Gate { return &c.Gates[id] }

// Fanin returns gate g's input gates, in pin order. The window's capacity
// is its length, so an append copies the list out instead of writing into
// the next gate's.
func (c *Circuit) Fanin(g GateID) []GateID {
	lo, hi := c.FaninOff[g], c.FaninOff[g+1]
	return c.Fanins[lo:hi:hi]
}

// Fanout returns the gates that read g, in ID order, a gate reading g on
// two pins listed twice. Its capacity is its length, as Fanin's is.
func (c *Circuit) Fanout(g GateID) []GateID {
	lo, hi := c.FanoutOff[g], c.FanoutOff[g+1]
	return c.Fanouts[lo:hi:hi]
}

// PinOf returns the input-pin index of gate `from` within gate `to`'s
// fanin list, or -1 if not connected.
func (c *Circuit) PinOf(to, from GateID) int {
	for i, f := range c.Fanin(to) {
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
		Ops: make(map[logic.Op]int), MaxLevel: int(c.MaxLevel), Fanouts: len(c.Fanouts),
	}
	for i := range c.Gates {
		g := &c.Gates[i]
		s.Ops[g.Op]++
		if !g.IsSource() {
			s.Gates++
		}
		s.MaxFanin = max(s.MaxFanin, len(c.Fanin(GateID(i))))
	}
	return s
}

func (s Stats) String() string {
	return fmt.Sprintf("%s: %d PI, %d PO, %d DFF, %d gates, depth %d",
		s.Name, s.PIs, s.POs, s.DFFs, s.Gates, s.MaxLevel)
}
