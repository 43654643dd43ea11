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

// IDs lists every fault ID of the universe in order, freshly allocated:
// the whole universe in the form engines take a fault subset in.
func (u *Universe) IDs() []int32 {
	ids := make([]int32, len(u.Faults))
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// StuckAll builds the complete (uncollapsed) single stuck-at universe:
// SA0/SA1 on every gate output line and on every input pin of every
// non-source gate, plus the D input pin of each flip-flop. The list is
// gate-major — a gate's output pair, then a pair per input pin — so the
// fault at (gate, pin, kind) sits at stuckBase(c)[gate] + 2*(pin+1) + kind.
func StuckAll(c *netlist.Circuit) *Universe {
	base := stuckBase(c)
	u := &Universe{Circuit: c, Faults: make([]Fault, 0, base[len(c.Gates)])}
	for i := range c.Gates {
		for pin := OutPin; pin < len(c.Gates[i].Fanin); pin++ {
			for _, k := range [...]Kind{SA0, SA1} {
				u.Faults = append(u.Faults, Fault{
					ID: int32(len(u.Faults)), Gate: netlist.GateID(i), Pin: int16(pin), Kind: k,
				})
			}
		}
	}
	return u
}

// stuckBase returns, per gate, the index of its first fault in StuckAll's
// list, and the list's length as one more entry.
func stuckBase(c *netlist.Circuit) []int32 {
	base := make([]int32, len(c.Gates)+1)
	for i := range c.Gates {
		base[i+1] = base[i] + 2*int32(1+len(c.Gates[i].Fanin))
	}
	return base
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
	base := stuckBase(c)
	n := int(base[len(c.Gates)])
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
		return base[g] + 2*int32(pin+1) + int32(k)
	}

	for i := range c.Gates {
		g := &c.Gates[i]
		id := netlist.GateID(i)
		// Rule (a)/(b): gate-local equivalences.
		switch g.Op {
		case logic.OpAnd:
			for p := range g.Fanin {
				union(at(id, p, SA0), at(id, OutPin, SA0))
			}
		case logic.OpNand:
			for p := range g.Fanin {
				union(at(id, p, SA0), at(id, OutPin, SA1))
			}
		case logic.OpOr:
			for p := range g.Fanin {
				union(at(id, p, SA1), at(id, OutPin, SA1))
			}
		case logic.OpNor:
			for p := range g.Fanin {
				union(at(id, p, SA1), at(id, OutPin, SA0))
			}
		case logic.OpNot:
			union(at(id, 0, SA0), at(id, OutPin, SA1))
			union(at(id, 0, SA1), at(id, OutPin, SA0))
		case logic.OpBuf, logic.OpDFF:
			union(at(id, 0, SA0), at(id, OutPin, SA0))
			union(at(id, 0, SA1), at(id, OutPin, SA1))
		}
		// Rule (c): fanout-free stems.
		if len(g.Fanout) == 1 {
			succ := g.Fanout[0]
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
		for pin := OutPin; pin < len(c.Gates[g].Fanin); pin++ {
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
// §3).
func Transition(c *netlist.Circuit) *Universe {
	u := &Universe{Circuit: c}
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.Op == logic.OpInput {
			continue
		}
		for p := range g.Fanin {
			u.Faults = append(u.Faults,
				Fault{ID: int32(len(u.Faults)), Gate: netlist.GateID(i), Pin: int16(p), Kind: STR},
				Fault{ID: int32(len(u.Faults)) + 1, Gate: netlist.GateID(i), Pin: int16(p), Kind: STF})
		}
	}
	return u
}
