// Package serial is the brute-force oracle fault simulator: one complete
// faulty-machine resimulation of the whole vector sequence per fault, full
// level-order evaluation every cycle, no event-driven shortcuts. It is far
// too slow for the paper's workloads but algorithmically transparent, so
// the concurrent simulator and the PROOFS baseline are cross-validated
// against it in the integration tests.
package serial

import (
	"context"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// machine is a full-evaluation simulator with an optional injected fault.
type machine struct {
	c   *netlist.Circuit
	val []logic.V

	fault      *faults.Fault // nil for the good machine
	prevDriver logic.V       // transition faults: driver value last cycle
}

func newMachine(c *netlist.Circuit, f *faults.Fault) *machine {
	m := &machine{c: c, val: make([]logic.V, len(c.Gates)), fault: f, prevDriver: logic.X}
	for i := range m.val {
		m.val[i] = logic.X
	}
	// An output stuck-at holds its line from time zero, before the first
	// evaluation or clock reaches it.
	if f != nil && f.Pin == faults.OutPin && f.Kind.Stuck() {
		m.val[f.Gate] = f.Kind.StuckValue()
	}
	return m
}

// pinValue returns the effective value of gate g's input pin p, applying
// the injected fault if it sits on that pin.
func (m *machine) pinValue(g netlist.GateID, p int, raw logic.V) logic.V {
	f := m.fault
	if f == nil || f.Gate != g || int(f.Pin) != p {
		return raw
	}
	switch f.Kind {
	case faults.SA0, faults.SA1:
		return f.Kind.StuckValue()
	case faults.STR, faults.STF:
		return faults.TransitionFV(f.Kind, m.prevDriver, raw)
	}
	return raw
}

// outValue applies an output-pin stuck-at fault, if any, to gate g's value.
func (m *machine) outValue(g netlist.GateID, raw logic.V) logic.V {
	f := m.fault
	if f != nil && f.Gate == g && f.Pin == faults.OutPin && f.Kind.Stuck() {
		return f.Kind.StuckValue()
	}
	return raw
}

// cycle applies one vector, settles combinationally, samples POs, and
// clocks the flip-flops. It returns the sampled PO values.
func (m *machine) cycle(vec []logic.V) []logic.V {
	for i, pi := range m.c.PIs {
		m.val[pi] = m.outValue(pi, vec[i])
	}
	// Flip-flop outputs already hold state (set at previous clock).
	in := make([]logic.V, logic.MaxPins)
	for _, lv := range m.c.Levels {
		for _, id := range lv {
			fanin := m.c.Fanin(id)
			for j, fi := range fanin {
				in[j] = m.pinValue(id, j, m.val[fi])
			}
			m.val[id] = m.outValue(id, logic.Eval(m.c.Gate(id).Op, in[:len(fanin)]))
		}
	}
	out := make([]logic.V, len(m.c.POs))
	for i, po := range m.c.POs {
		out[i] = m.val[po]
	}
	next := make([]logic.V, len(m.c.DFFs))
	for i, ff := range m.c.DFFs {
		d := m.pinValue(ff, 0, m.val[m.c.Fanin(ff)[0]])
		next[i] = d
	}
	// Record the driver value for a transition fault site (the fired,
	// settled value): the delayed edge completes within the cycle, so the
	// site reaches the driver's value before the next sample. This must
	// happen after the D pins were sampled above.
	if f := m.fault; f != nil && !f.Kind.Stuck() {
		driver := m.c.Fanin(f.Gate)[f.Pin]
		m.prevDriver = m.val[driver]
	}
	for i, ff := range m.c.DFFs {
		m.val[ff] = m.outValue(ff, next[i])
	}
	return out
}

// detected reports whether good/faulty PO samples expose the fault (both
// binary and different on at least one output) and whether they expose it
// potentially (good binary, faulty X).
func detected(good, faulty []logic.V) (hard, potential bool) {
	for i := range good {
		if !good[i].Binary() {
			continue
		}
		if faulty[i].Binary() && good[i] != faulty[i] {
			hard = true
		} else if !faulty[i].Binary() {
			potential = true
		}
	}
	return hard, potential
}

// Simulate runs every fault of u against the vector sequence and returns
// the detections. It handles stuck-at and transition universes uniformly.
// ctx is checked before every fault; a cancelled run returns ctx.Err().
func Simulate(ctx context.Context, u *faults.Universe, vecs *vectors.Set) (*faults.Result, error) {
	c := u.Circuit
	res := faults.NewResult(u)

	// Precompute the good-machine PO trace once.
	good := newMachine(c, nil)
	goodOut := make([][]logic.V, vecs.Len())
	for t, vec := range vecs.Vecs {
		goodOut[t] = good.cycle(vec)
	}

	for fi := range u.Faults {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		f := &u.Faults[fi]
		m := newMachine(c, f)
		for t, vec := range vecs.Vecs {
			out := m.cycle(vec)
			hard, potential := detected(goodOut[t], out)
			if potential {
				res.PotDetect(f.ID)
			}
			if hard {
				res.Detect(f.ID, t)
				break
			}
		}
	}
	return res, nil
}
