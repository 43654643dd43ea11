// Package csim is the paper's primary contribution: a concurrent fault
// simulator for synchronous sequential circuits with the simplicity of
// deductive fault simulation (§2). One good machine and many faulty
// machines are simulated together; a faulty machine is represented
// explicitly only at gates where its state differs from the good machine,
// by a fault element holding a fault identifier, a packed state word, and
// a link to the next element (Figure 2).
//
// The simulator implements all of the paper's improvements:
//
//   - zero-delay levelized scheduling: only gate identifiers are queued,
//     and each gate is evaluated at most once per settle phase;
//   - event-driven fault dropping: elements of detected faults are
//     reclaimed while lists containing them are traversed, with a terminal
//     sentinel element whose imaginary descriptor is never dropped;
//   - visible/invisible list splitting (Config.SplitLists, the V of
//     csim-V): fanout propagation walks only the visible list;
//   - macro extraction (Config.Macros, the M of csim-M): fanout-free
//     regions evaluate as single lookup-table gates and internal stuck-at
//     faults become functional faults;
//   - transition-fault simulation (§3) using the per-gate previous values
//     the concurrent method keeps anyway.
package csim

import (
	"fmt"
	"math"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/macro"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/vectors"
)

// Config selects the simulator variant. The paper's named configurations:
// csim-V = {SplitLists}, csim-M = {Macros}, csim-MV = {SplitLists, Macros}.
type Config struct {
	// SplitLists keeps visible and invisible faults in separate lists per
	// gate so that fanout propagation never touches invisible elements.
	SplitLists bool
	// Macros collapses fanout-free regions into table-lookup macro gates.
	Macros bool
	// ReconvergentMacros enables the paper's §2.2 extension: macros are
	// not limited to fanout-free regions, so reconvergent logic collapses
	// too and more stuck-at faults become functional faults. Implies
	// Macros.
	ReconvergentMacros bool
	// EagerDrop disables the paper's event-driven dropping: on every
	// detection the whole circuit is scanned for the dropped fault's
	// elements. Exists as an ablation baseline.
	EagerDrop bool
	// Plan, when non-nil, supplies a precompiled macro plan and skips
	// extraction entirely — an engine.Artifacts set hands the same
	// immutable plan to every run on the same circuit. The plan must
	// cover the universe's circuit and must have been built by NewPlan
	// with settings matching Macros / ReconvergentMacros;
	// the circuit identity is checked, the settings are the caller's
	// contract. macro.Plan and its Macros are //simlint:immutable — the
	// immutableplan analyzer proves no store to them is reachable after
	// extraction returns, so sharing one Plan across jobs is race-free by
	// construction.
	Plan *macro.Plan
	// Obs attaches the observability layer; the simulator reads its
	// fault-lifecycle event log (see internal/obs and OBSERVABILITY.md).
	// The simulator writes no metrics; its counters are Stats. Nil — the
	// default — disables observability entirely; the hot paths then take
	// the nil fast path at zero added allocations.
	Obs *obs.Observer
}

// MV returns the paper's best configuration, csim-MV.
func MV() Config { return Config{SplitLists: true, Macros: true} }

// V returns csim-V (split lists, no macros).
func V() Config { return Config{SplitLists: true} }

// M returns csim-M (macros, single list per gate).
func M() Config { return Config{Macros: true} }

// elem is a fault element (Figure 2): fault identifier, packed faulty gate
// state, and next link. Elements live in an arena indexed by int32; index
// 0 is the terminal sentinel shared by every list.
type elem struct {
	fault int32
	next  int32
	word  logic.Word
}

// elemSize is the accounted per-element memory footprint in bytes.
const elemSize = 16

// Simulator is a concurrent fault simulator over one fault universe.
type Simulator struct {
	c    *netlist.Circuit
	u    *faults.Universe
	cfg  Config
	plan *macro.Plan
	res  *faults.Result

	sentinel int32 // fault ID of the terminal element (= len(u.Faults))
	dropped  []bool

	goodVal  []logic.V    // per gate; meaningful for sources and roots
	goodWord []logic.Word // per root: packed good leaf values + output

	arena    []elem
	freeHead int32
	stats    Stats

	vis []int32 // per gate: visible-list head (arena index, 0 = empty)
	inv []int32 // per gate: invisible-list head (split mode only)

	locals [][]int32 // per gate: sorted IDs of faults sited at that gate

	// consumers[g] lists the (root, leafPin) pairs fed by gate g.
	consumers [][]consumer

	prevDriver []logic.V // per transition fault: driver value last cycle
	retrig     []netlist.GateID
	retrigOn   []bool

	sched    []bool
	pinEvent []uint32
	queue    [][]netlist.GateID

	// scratch
	gin, fin, frame []logic.V
	newQ            []logic.V // DFF commit scratch (good values)
	newQLists       [][]pendingElem
	dffEvent        []bool
	vecIndex        int
	firstCycle      bool

	// The fault-lifecycle log; nil when Config.Obs has none (the
	// zero-cost disabled state).
	flog *obs.FaultLog
}

type consumer struct {
	root netlist.GateID
	pin  int32
}

type pendingElem struct {
	fault int32
	word  logic.Word
}

// New builds a simulator for the universe's circuit. The universe may be
// stuck-at, transition, or mixed.
func New(u *faults.Universe, cfg Config) (*Simulator, error) {
	c := u.Circuit
	plan := cfg.Plan
	if plan == nil {
		var err error
		plan, err = NewPlan(c, cfg)
		if err != nil {
			return nil, err
		}
	} else if plan.C != c {
		return nil, fmt.Errorf("csim: precompiled plan is for circuit %q, universe is over %q",
			plan.C.Name, c.Name)
	}
	n := len(c.Gates)
	s := &Simulator{
		c: c, u: u, cfg: cfg, plan: plan,
		res:       faults.NewResult(u),
		sentinel:  int32(len(u.Faults)),
		dropped:   make([]bool, len(u.Faults)+1),
		goodVal:   make([]logic.V, n),
		goodWord:  make([]logic.Word, n),
		vis:       make([]int32, n),
		inv:       make([]int32, n),
		locals:    make([][]int32, n),
		consumers: make([][]consumer, n),
		retrigOn:  make([]bool, n),
		sched:     make([]bool, n),
		pinEvent:  make([]uint32, n),
		queue:     make([][]netlist.GateID, plan.MaxLevel+1),
	}
	// Arena slot 0 is the sentinel: a terminal element whose fault ID is
	// larger than every real fault and whose descriptor is never dropped.
	s.arena = []elem{{fault: s.sentinel, next: 0}}
	s.freeHead = -1

	maxLeaves := 0
	for _, m := range plan.ByRoot {
		if m != nil && m.NumLeaves() > maxLeaves {
			maxLeaves = m.NumLeaves()
		}
	}
	s.gin = make([]logic.V, maxLeaves)
	s.fin = make([]logic.V, maxLeaves)
	s.frame = make([]logic.V, plan.MaxFrame)
	s.newQ = make([]logic.V, len(c.DFFs))
	s.newQLists = make([][]pendingElem, len(c.DFFs))
	s.dffEvent = make([]bool, len(c.DFFs))

	s.flog = cfg.Obs.FaultLog()

	// Fault-site ownership: faults on absorbed gates belong to their
	// macro's root. Faults are sited in ID order, so per-gate locals stay
	// sorted.
	anyTransition := false
	for i := range u.Faults {
		f := &u.Faults[i]
		owner := f.Gate
		if !c.Gate(f.Gate).IsSource() {
			owner = plan.Owner[f.Gate]
		}
		s.locals[owner] = append(s.locals[owner], f.ID)
		if !f.Kind.Stuck() {
			anyTransition = true
		}
		if s.flog != nil {
			s.flog.Emit(obs.FaultEvent{Vec: -1, Fault: f.ID, Gate: int32(owner), Kind: obs.FaultInjected})
		}
	}
	if anyTransition {
		s.prevDriver = make([]logic.V, len(u.Faults))
		for i := range s.prevDriver {
			s.prevDriver[i] = logic.X
		}
	}

	// Consumer adjacency over the macro graph.
	for id, m := range plan.ByRoot {
		if m == nil {
			continue
		}
		for p, l := range m.Leaves {
			s.consumers[l] = append(s.consumers[l],
				consumer{root: netlist.GateID(id), pin: int32(p)})
		}
	}

	s.resetState()
	return s, nil
}

// NewPlan builds the macro plan cfg selects over c: reconvergent macros,
// fanout-free macros, or one trivial macro per gate, with macro leaves
// capped at macro.DefaultMaxInputs.
func NewPlan(c *netlist.Circuit, cfg Config) (*macro.Plan, error) {
	switch {
	case cfg.ReconvergentMacros:
		return macro.ExtractReconvergent(c, macro.DefaultMaxInputs)
	case cfg.Macros:
		return macro.Extract(c, macro.DefaultMaxInputs)
	}
	return macro.Trivial(c), nil
}

func (s *Simulator) resetState() {
	for i := range s.goodVal {
		s.goodVal[i] = logic.X
	}
	for id, m := range s.plan.ByRoot {
		if m == nil {
			continue
		}
		// An impossible all-ones word guarantees the first evaluation sees
		// a good-input change, so every local fault's activation under the
		// initial all-X state is established.
		s.goodWord[id] = ^logic.Word(0)
	}
	s.firstCycle = true
	s.vecIndex = 0
}

// Result returns the accumulated detections.
func (s *Simulator) Result() *faults.Result { return s.res }

// Stats returns the run's counters so far.
func (s *Simulator) Stats() Stats {
	st := s.stats
	st.Macros = s.plan.NumMacros()
	st.MemBytes = int64(st.PeakElems) * elemSize
	return st
}

// Run simulates the whole vector set and returns the detections.
func (s *Simulator) Run(vs *vectors.Set) *faults.Result {
	if vs.NumPIs != len(s.c.PIs) {
		panic(fmt.Sprintf("csim: vector width %d, circuit has %d PIs", vs.NumPIs, len(s.c.PIs)))
	}
	for _, v := range vs.Vecs {
		s.Cycle(v)
	}
	return s.res
}

// alloc takes an element from the free list or grows the arena.
func (s *Simulator) alloc(fault int32, word logic.Word, next int32) int32 {
	var idx int32
	if s.freeHead >= 0 {
		idx = s.freeHead
		s.freeHead = s.arena[idx].next
		s.arena[idx] = elem{fault: fault, word: word, next: next}
	} else {
		idx = int32(len(s.arena))
		s.arena = append(s.arena, elem{fault: fault, word: word, next: next})
	}
	s.stats.CurElems++
	if s.stats.CurElems > s.stats.PeakElems {
		s.stats.PeakElems = s.stats.CurElems
	}
	return idx
}

// free returns an element to the free list.
func (s *Simulator) free(idx int32) {
	s.arena[idx].next = s.freeHead
	s.arena[idx].fault = math.MaxInt32
	s.freeHead = idx
	s.stats.CurElems--
}

// fev emits one fault-lifecycle event; with no log attached it reduces to
// an inlined nil check.
func (s *Simulator) fev(kind obs.FaultEventKind, g netlist.GateID, fault int32) {
	if s.flog == nil {
		return
	}
	s.flog.Emit(obs.FaultEvent{Vec: int32(s.vecIndex), Fault: fault, Gate: int32(g), Kind: kind})
}
