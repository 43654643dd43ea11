package netcheck

import (
	"fmt"

	"repro/internal/faults"
)

// CheckUniverse verifies fault-list well-formedness: dense ascending
// IDs, in-range sites (gate exists; pin is OutPin or a real input pin),
// kinds drawn from the defined set, transition faults only on input
// pins, and — for collapsed universes — a total Rep map targeting real
// representatives.
func CheckUniverse(u *faults.Universe) []Problem {
	c := u.Circuit
	var ps []Problem
	for i, f := range u.Faults {
		if int(f.ID) != i {
			ps = append(ps, Problem{"fault-id",
				fmt.Sprintf("fault at index %d has ID %d", i, f.ID)})
			continue
		}
		if f.Gate < 0 || int(f.Gate) >= len(c.Gates) {
			ps = append(ps, Problem{"fault-site",
				fmt.Sprintf("fault %d sited at out-of-range gate %d", f.ID, f.Gate)})
			continue
		}
		g, pins := c.Gate(f.Gate), len(c.Fanin(f.Gate))
		if f.Pin != faults.OutPin && (f.Pin < 0 || int(f.Pin) >= pins) {
			ps = append(ps, Problem{"fault-site",
				fmt.Sprintf("fault %d on %s pin %d, gate has %d input(s)",
					f.ID, g.Name, f.Pin, pins)})
		}
		switch f.Kind {
		case faults.SA0, faults.SA1:
		case faults.STR, faults.STF:
			if f.Pin == faults.OutPin {
				ps = append(ps, Problem{"fault-kind",
					fmt.Sprintf("transition fault %d on %s output; transitions attach to input pins",
						f.ID, g.Name)})
			}
		default:
			ps = append(ps, Problem{"fault-kind",
				fmt.Sprintf("fault %d has unknown kind %d", f.ID, f.Kind)})
		}
	}
	if u.Rep != nil {
		for i, r := range u.Rep {
			if r < 0 || int(r) >= len(u.Faults) {
				ps = append(ps, Problem{"fault-rep",
					fmt.Sprintf("Rep[%d] = %d outside the collapsed universe of %d", i, r, len(u.Faults))})
			}
		}
	}
	return ps
}
