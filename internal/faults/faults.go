// Package faults defines the fault models of the paper — single stuck-at
// faults and gate-input transition (gross delay) faults — together with the
// fault universe construction, structural equivalence collapsing, and
// detection bookkeeping shared by all simulators.
package faults

import (
	"fmt"
	"math"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Kind identifies the fault type.
type Kind uint8

const (
	// SA0 and SA1 are the classical single stuck-at faults.
	SA0 Kind = iota
	SA1
	// STR (slow to rise) delays a 0→1 transition at the fault site past
	// the sampling edge; STF delays 1→0. These are the paper's §3
	// transition faults: two per gate input.
	STR
	STF
)

// String returns the conventional abbreviation.
func (k Kind) String() string {
	switch k {
	case SA0:
		return "SA0"
	case SA1:
		return "SA1"
	case STR:
		return "STR"
	case STF:
		return "STF"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Stuck reports whether k is a stuck-at kind.
func (k Kind) Stuck() bool { return k == SA0 || k == SA1 }

// StuckValue returns the forced value of a stuck-at kind.
func (k Kind) StuckValue() logic.V {
	if k == SA1 {
		return logic.One
	}
	return logic.Zero
}

// OutPin marks a fault on the gate's output line rather than an input pin.
const OutPin = -1

// A pin index fits Fault.Pin: the Builder refuses gates wider than
// logic.MaxPins, and this constant does not compile once that is past
// int16.
const _ uint = math.MaxInt16 - logic.MaxPins

// Fault is a single fault: a kind at a site (gate, pin). Pin == OutPin
// places the fault on the gate output (stem); otherwise on input pin Pin.
// A universe holds one per fault, so a fault is kept to 12 bytes.
type Fault struct {
	ID   int32 // dense index within its Universe
	Gate netlist.GateID
	Pin  int16
	Kind Kind
}

// Name renders the fault as "<gate>/<pin> <kind>", e.g. "G9/IN1 SA0" or
// "G10/O STR".
func (f Fault) Name(c *netlist.Circuit) string {
	if f.Pin == OutPin {
		return fmt.Sprintf("%s/O %s", c.Gate(f.Gate).Name, f.Kind)
	}
	return fmt.Sprintf("%s/IN%d %s", c.Gate(f.Gate).Name, f.Pin, f.Kind)
}

// Universe is a fault list over a circuit, optionally collapsed.
type Universe struct {
	Circuit *netlist.Circuit
	Faults  []Fault
	// Rep maps each fault in the *uncollapsed* universe to the ID of its
	// equivalence-class representative within Faults. Nil when the
	// universe was built uncollapsed.
	Rep []int32
}

// NumFaults returns the number of faults simulators must target.
func (u *Universe) NumFaults() int { return len(u.Faults) }

// ShardSize returns how many faults of an n-fault universe shard k of an
// of-way split holds. Shard k of of is the faults whose ID ≡ k (mod of),
// in ascending ID order; the whole universe is shard 0 of 1. It is the one
// split rule: the compiled kernel, a pinned shard job and the
// coordinator's check of its reply all use it.
func ShardSize(n, k, of int) int {
	if k >= n {
		return 0
	}
	return (n - k + of - 1) / of
}

// StuckAll builds the complete (uncollapsed) single stuck-at universe:
// SA0/SA1 on every gate output line and on every input pin of every
// non-source gate, plus the D input pin of each flip-flop. The list is
// gate-major — a gate's output pair, then a pair per input pin — so the
// gates before g hold 2*(g + c.FaninOff[g]) faults, and the fault at
// (g, pin, kind) sits at 2*(g + c.FaninOff[g]) + 2*(pin+1) + kind.
func StuckAll(c *netlist.Circuit) *Universe {
	u := &Universe{Circuit: c, Faults: make([]Fault, 0, 2*(len(c.Gates)+len(c.Fanins)))}
	for i := range c.Gates {
		for pin := OutPin; pin < len(c.Fanin(netlist.GateID(i))); pin++ {
			for _, k := range [...]Kind{SA0, SA1} {
				u.Faults = append(u.Faults, Fault{
					ID: int32(len(u.Faults)), Gate: netlist.GateID(i), Pin: int16(pin), Kind: k,
				})
			}
		}
	}
	return u
}

// StuckCollapsed builds the stuck-at universe collapsed by structural
// equivalence: (a) an input fault with the gate's controlling value is
// equivalent to the corresponding output fault (AND: in-SA0 ≡ out-SA0;
// NAND: in-SA0 ≡ out-SA1; OR: in-SA1 ≡ out-SA1; NOR: in-SA1 ≡ out-SA0),
// (b) NOT/BUFF/DFF input faults are equivalent to the (possibly inverted)
// output fault, and (c) on a fanout-free line the stem fault and the
// single branch fault are the same fault.
//
// Faults on Universe.Faults are class representatives; Rep maps every
// uncollapsed fault index to its representative's ID.
func StuckCollapsed(c *netlist.Circuit) *Universe {
	n := 2 * (len(c.Gates) + len(c.Fanins))
	// Union-find over StuckAll's indices, without the list itself; a
	// class's root is its lowest index.
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int32) {
		ra, rb := find(a), find(b)
		if ra < rb {
			parent[rb] = ra
		} else {
			parent[ra] = rb
		}
	}
	at := func(g netlist.GateID, pin int, k Kind) int32 {
		return 2*(int32(g)+c.FaninOff[g]) + 2*int32(pin+1) + int32(k)
	}

	for i := range c.Gates {
		g := &c.Gates[i]
		id := netlist.GateID(i)
		// Rule (a)/(b): gate-local equivalences. SA0 and SA1 are numbered
		// like logic.Zero and logic.One, and k^inv is the output fault an
		// input stuck at k forces.
		inv := Kind(0)
		if g.Op.Inverting() {
			inv = 1
		}
		if cv, ok := g.Op.Controlling(); ok {
			for p := range len(c.Fanin(id)) {
				union(at(id, p, Kind(cv)), at(id, OutPin, Kind(cv)^inv))
			}
		} else if g.Op == logic.OpNot || g.Op == logic.OpBuf || g.Op == logic.OpDFF {
			union(at(id, 0, SA0), at(id, OutPin, SA0^inv))
			union(at(id, 0, SA1), at(id, OutPin, SA1^inv))
		}
		// Rule (c): fanout-free stems.
		if fo := c.Fanout(id); len(fo) == 1 {
			succ := fo[0]
			p := c.PinOf(succ, id)
			union(at(id, OutPin, SA0), at(succ, p, SA0))
			union(at(id, OutPin, SA1), at(succ, p, SA1))
		}
	}

	// A root is met before the rest of its class, so classes are numbered
	// in the order of their representatives.
	classes := 0
	for i := range parent {
		if parent[i] == int32(i) {
			classes++
		}
	}
	u := &Universe{Circuit: c, Faults: make([]Fault, 0, classes), Rep: make([]int32, n)}
	i := int32(0) // the index StuckAll gives the site at hand
	for g := range c.Gates {
		for pin := OutPin; pin < len(c.Fanin(netlist.GateID(g))); pin++ {
			for _, k := range [...]Kind{SA0, SA1} {
				root := find(i)
				if root == i {
					u.Rep[i] = int32(len(u.Faults))
					u.Faults = append(u.Faults, Fault{ID: u.Rep[i], Gate: netlist.GateID(g), Pin: int16(pin), Kind: k})
				}
				u.Rep[i] = u.Rep[root]
				i++
			}
		}
	}
	return u
}

// Transition builds the transition-fault universe: one STR and one STF
// fault on every input pin of every non-source gate and on each flip-flop
// D input ("two transition faults are associated with each gate input",
// §3). An INPUT gate has no pins, so the universe holds two faults per
// fanin edge.
func Transition(c *netlist.Circuit) *Universe {
	u := &Universe{Circuit: c, Faults: make([]Fault, 0, 2*len(c.Fanins))}
	for i := range c.Gates {
		for p := range c.Fanin(netlist.GateID(i)) {
			u.Faults = append(u.Faults,
				Fault{ID: int32(len(u.Faults)), Gate: netlist.GateID(i), Pin: int16(p), Kind: STR},
				Fault{ID: int32(len(u.Faults)) + 1, Gate: netlist.GateID(i), Pin: int16(p), Kind: STF})
		}
	}
	return u
}
