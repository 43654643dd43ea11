package csim

import (
	"fmt"
	"math"
)

// CheckInvariants audits the simulator's fault-list machinery between
// cycles: the shared sentinel, sorted sentinel-terminated per-gate
// lists, the split-mode visible/invisible partition against current
// good values, arena accounting against the free list, and the local
// fault siting tables. It is a debug hook for the integration and csim
// tests; it allocates and is never called on the hot path.
func (s *Simulator) CheckInvariants() error {
	// Sentinel: arena slot 0 terminates every list and carries a fault ID
	// beyond all real faults so merges stop naturally.
	if len(s.arena) == 0 {
		return fmt.Errorf("csim: arena missing its sentinel slot")
	}
	if s.arena[0].fault != s.sentinel || s.arena[0].next != 0 {
		return fmt.Errorf("csim: sentinel corrupt: fault %d next %d, want fault %d next 0",
			s.arena[0].fault, s.arena[0].next, s.sentinel)
	}

	inList := make([]bool, len(s.arena))
	listed := 0
	walk := func(head int32, what string, vis bool, gate int) error {
		steps := 0
		prevFault := int32(-1)
		for idx := head; idx != 0; idx = s.arena[idx].next {
			if idx < 0 || int(idx) >= len(s.arena) {
				return fmt.Errorf("csim: %s list of gate %s links to arena index %d of %d",
					what, s.c.Gates[gate].Name, idx, len(s.arena))
			}
			if steps++; steps > len(s.arena) {
				return fmt.Errorf("csim: %s list of gate %s is cyclic",
					what, s.c.Gates[gate].Name)
			}
			e := &s.arena[idx]
			if inList[idx] {
				return fmt.Errorf("csim: arena element %d appears in two lists", idx)
			}
			inList[idx] = true
			listed++
			if e.fault < 0 || e.fault >= s.sentinel {
				return fmt.Errorf("csim: %s list of gate %s holds fault ID %d outside [0,%d)",
					what, s.c.Gates[gate].Name, e.fault, s.sentinel)
			}
			if e.fault <= prevFault {
				return fmt.Errorf("csim: %s list of gate %s not strictly ascending: %d after %d",
					what, s.c.Gates[gate].Name, e.fault, prevFault)
			}
			prevFault = e.fault
			// Partition discipline. Elements of dropped faults may linger
			// until a traversal reclaims them; they are exempt.
			if !s.dropped[e.fault] {
				good := s.goodVal[gate]
				if s.cfg.SplitLists && !vis && e.word.Out() != good {
					return fmt.Errorf("csim: invisible element (gate %s, fault %d) drives %v, good is %v",
						s.c.Gates[gate].Name, e.fault, e.word.Out(), good)
				}
				if s.cfg.SplitLists && vis && e.word.Out() == good {
					return fmt.Errorf("csim: visible element (gate %s, fault %d) matches the good value %v",
						s.c.Gates[gate].Name, e.fault, good)
				}
			}
		}
		return nil
	}
	for i := range s.c.Gates {
		if err := walk(s.vis[i], "visible", true, i); err != nil {
			return err
		}
		if err := walk(s.inv[i], "invisible", false, i); err != nil {
			return err
		}
		if !s.cfg.SplitLists && s.inv[i] != 0 {
			return fmt.Errorf("csim: gate %s has an invisible list without SplitLists",
				s.c.Gates[i].Name)
		}
	}

	// Free list: disjoint from live lists, poisoned fault IDs, and the
	// arena fully accounted for (1 sentinel + listed + free).
	free := 0
	steps := 0
	for idx := s.freeHead; idx >= 0; idx = s.arena[idx].next {
		if int(idx) >= len(s.arena) {
			return fmt.Errorf("csim: free list links to arena index %d of %d", idx, len(s.arena))
		}
		if steps++; steps > len(s.arena) {
			return fmt.Errorf("csim: free list is cyclic")
		}
		if idx == 0 {
			return fmt.Errorf("csim: sentinel slot on the free list")
		}
		if inList[idx] {
			return fmt.Errorf("csim: arena element %d on both a fault list and the free list", idx)
		}
		if s.arena[idx].fault != math.MaxInt32 {
			return fmt.Errorf("csim: free element %d not poisoned (fault %d)", idx, s.arena[idx].fault)
		}
		free++
	}
	if listed != s.stats.CurElems {
		return fmt.Errorf("csim: CurElems is %d but lists hold %d element(s)", s.stats.CurElems, listed)
	}
	if 1+listed+free != len(s.arena) {
		return fmt.Errorf("csim: arena leak: %d slot(s) = 1 sentinel + %d listed + %d free, want %d",
			len(s.arena), listed, free, 1+listed+free)
	}

	// Local fault tables: sorted, unique, in range.
	for g, loc := range s.locals {
		for i, f := range loc {
			if f < 0 || f >= s.sentinel {
				return fmt.Errorf("csim: gate %s local fault %d outside [0,%d)",
					s.c.Gates[g].Name, f, s.sentinel)
			}
			if i > 0 && loc[i-1] >= f {
				return fmt.Errorf("csim: gate %s local faults not strictly ascending",
					s.c.Gates[g].Name)
			}
		}
	}
	return nil
}
