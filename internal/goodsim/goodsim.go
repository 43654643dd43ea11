// Package goodsim is the fault-free (good machine) zero-delay simulator
// for synchronous sequential circuits. It uses the levelized event-driven
// discipline of the paper's §2.1: only gate identifiers are scheduled, and
// gates are evaluated in level order so each gate is evaluated at most once
// per clock cycle. All simulators in this repository share its semantics:
// apply a vector, let the combinational network settle, sample the primary
// outputs, then clock the flip-flops.
package goodsim

import (
	"repro/internal/logic"
	"repro/internal/netlist"
)

// Sim is a good-machine simulator. The zero value is not usable; call New.
type Sim struct {
	c   *netlist.Circuit
	val []logic.V

	sched  []bool
	queue  [][]netlist.GateID // per-level event buckets
	inBuf  []logic.V
	Events int // gate evaluations performed (instrumentation)
}

// New returns a simulator with every signal, including flip-flop state,
// initialized to X.
func New(c *netlist.Circuit) *Sim {
	s := &Sim{
		c:     c,
		val:   make([]logic.V, len(c.Gates)),
		sched: make([]bool, len(c.Gates)),
		queue: make([][]netlist.GateID, c.MaxLevel+1),
		inBuf: make([]logic.V, logic.MaxPins),
	}
	s.Reset()
	return s
}

// Circuit returns the simulated circuit.
func (s *Sim) Circuit() *netlist.Circuit { return s.c }

// Reset returns every signal to X and clears pending events.
func (s *Sim) Reset() {
	for i := range s.val {
		s.val[i] = logic.X
	}
	for i := range s.sched {
		s.sched[i] = false
	}
	for l := range s.queue {
		s.queue[l] = s.queue[l][:0]
	}
}

// Val returns the current value of a gate's output line.
func (s *Sim) Val(id netlist.GateID) logic.V { return s.val[id] }

func (s *Sim) schedule(id netlist.GateID) {
	if s.sched[id] {
		return
	}
	s.sched[id] = true
	l := s.c.Gate(id).Level
	s.queue[l] = append(s.queue[l], id)
}

// setSource assigns a level-0 signal (PI or FF output) and schedules the
// combinational fanout on change.
func (s *Sim) setSource(id netlist.GateID, v logic.V) {
	v = v.Norm()
	if s.val[id] == v {
		return
	}
	s.val[id] = v
	for _, fo := range s.c.Fanout(id) {
		if !s.c.Gate(fo).IsSource() {
			s.schedule(fo)
		}
	}
}

// eval recomputes one gate from its fanin values.
func (s *Sim) eval(id netlist.GateID) logic.V {
	fanin := s.c.Fanin(id)
	in := s.inBuf[:len(fanin)]
	for j, f := range fanin {
		in[j] = s.val[f]
	}
	s.Events++
	return logic.Eval(s.c.Gate(id).Op, in)
}

// settle processes the event queue level by level until quiescent.
func (s *Sim) settle() {
	for l := 1; l < len(s.queue); l++ {
		bucket := s.queue[l]
		for i := 0; i < len(bucket); i++ {
			id := bucket[i]
			s.sched[id] = false
			nv := s.eval(id)
			if nv == s.val[id] {
				continue
			}
			s.val[id] = nv
			for _, fo := range s.c.Fanout(id) {
				if !s.c.Gate(fo).IsSource() {
					s.schedule(fo)
				}
			}
		}
		s.queue[l] = s.queue[l][:0]
	}
}

// Apply asserts a primary-input vector (one value per PI, in circuit PI
// order) and settles the combinational network. Flip-flops hold state.
func (s *Sim) Apply(vec []logic.V) {
	for i, pi := range s.c.PIs {
		s.setSource(pi, vec[i])
	}
	s.settle()
}

// Clock latches each flip-flop's D input into its output and schedules the
// resulting events; they propagate at the next Apply.
func (s *Sim) Clock() {
	// Sample all D inputs first so FF-to-FF chains latch simultaneously.
	next := make([]logic.V, len(s.c.DFFs))
	for i, ff := range s.c.DFFs {
		next[i] = s.val[s.c.Fanin(ff)[0]]
	}
	for i, ff := range s.c.DFFs {
		s.setSource(ff, next[i])
	}
}

// Cycle runs one full clock cycle: apply vec, settle, capture the POs,
// then clock the flip-flops. It returns the sampled PO values.
func (s *Sim) Cycle(vec []logic.V) []logic.V {
	s.Apply(vec)
	out := make([]logic.V, len(s.c.POs))
	for i, po := range s.c.POs {
		out[i] = s.val[po]
	}
	s.Clock()
	return out
}

// Run simulates a whole vector sequence from the all-X state and returns
// the PO response matrix.
func Run(c *netlist.Circuit, vecs [][]logic.V) [][]logic.V {
	s := New(c)
	out := make([][]logic.V, len(vecs))
	for t, v := range vecs {
		out[t] = s.Cycle(v)
	}
	return out
}
