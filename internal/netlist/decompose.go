package netlist

import (
	"fmt"

	"repro/internal/logic"
)

// Decompose rewrites every combinational gate with more than maxFanin
// inputs into a tree of gates of at most maxFanin inputs computing the same
// function, and returns the rebuilt circuit. Gates already within the limit
// are kept verbatim (same names), so fault universes over original gates
// remain meaningful. Introduced gates are named <gate>$dN.
//
// AND/NAND/OR/NOR/XOR trees use the base (non-inverting) op for internal
// nodes and keep the original op at the root; this preserves the function
// because all five ops are associative in their base form.
func Decompose(c *Circuit, maxFanin int) (*Circuit, error) {
	if maxFanin < 2 {
		return nil, fmt.Errorf("netlist: maxFanin %d < 2", maxFanin)
	}
	b := NewBuilder(c.Name)
	aux := 0
	for i := range c.Gates {
		g := &c.Gates[i]
		fanin := c.Fanin(GateID(i))
		switch g.Op {
		case logic.OpInput:
			b.Input(g.Name)
			continue
		case logic.OpDFF:
			b.DFF(g.Name, c.Gates[fanin[0]].Name)
			continue
		}
		names := make([]string, len(fanin))
		for j, f := range fanin {
			names[j] = c.Gates[f].Name
		}
		if len(names) <= maxFanin {
			b.Gate(g.Name, g.Op, names...)
			continue
		}
		base := g.Op.Base()
		// Reduce in rounds: group maxFanin signals into an internal base
		// gate until the survivor count fits under the root.
		for len(names) > maxFanin {
			var next []string
			for lo := 0; lo < len(names); lo += maxFanin {
				hi := lo + maxFanin
				if hi > len(names) {
					hi = len(names)
				}
				grp := names[lo:hi]
				if len(grp) == 1 {
					next = append(next, grp[0])
					continue
				}
				an := fmt.Sprintf("%s$d%d", g.Name, aux)
				aux++
				b.Gate(an, base, grp...)
				next = append(next, an)
			}
			names = next
		}
		if len(names) == 1 && g.Op.Inverting() {
			// Root must still apply the inversion.
			b.Gate(g.Name, logic.OpNot, names[0])
		} else if len(names) == 1 {
			b.Gate(g.Name, logic.OpBuf, names[0])
		} else {
			b.Gate(g.Name, g.Op, names...)
		}
	}
	for _, id := range c.POs {
		b.Output(c.Gates[id].Name)
	}
	return b.Build()
}
