// Package proofs reimplements the comparison baseline of the paper's §4:
// PROOFS (Niermann, Cheng and Patel, DAC 1990), a fault simulator for
// synchronous sequential circuits that combines single fault propagation
// with bit-parallelism. Undetected faults are packed 64 to a machine word;
// for each group the faulty machines start from the good-machine values,
// differ only in their stored flip-flop state differences and injected
// fault sites, and are propagated event-driven through the levelized
// network using two bit-plane ternary encoding.
package proofs

import (
	"fmt"
	"math/bits"

	"repro/internal/faults"
	"repro/internal/goodsim"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// W is the group width: faults simulated concurrently per pass.
const W = 64

// ffDiff records one flip-flop whose faulty state differs from the good
// machine: PROOFS stores faulty state as differences, which is what makes
// it memory-efficient.
type ffDiff struct {
	ff  int32 // index into circuit DFFs
	val logic.V
}

// Stats instruments a run.
type Stats struct {
	Groups    int   // fault-group propagation passes
	Evals     int   // bit-parallel gate evaluations
	PeakDiffs int   // high-water mark of stored FF differences
	MemBytes  int64 // accounted memory at peak (diffs + planes)
}

// Sim is a PROOFS-style fault simulator. Only stuck-at universes are
// supported (the paper, like PROOFS itself, runs transition faults only on
// the concurrent simulator).
type Sim struct {
	c    *netlist.Circuit
	u    *faults.Universe
	good *goodsim.Sim
	res  *faults.Result

	active []int32    // undetected fault IDs, in ID order
	diffs  [][]ffDiff // per fault: FF state differences vs good

	// Per-group scratch, epoch-stamped so only touched gates are reset.
	v1, v0  []uint64
	stamp   []int32
	epoch   int32
	sched   []bool
	queue   [][]netlist.GateID
	touched []netlist.GateID

	// Current group's injections at combinational gate sites.
	inject   [][]injection
	injGates []netlist.GateID

	// dffsFedBy[g] lists DFF indices whose D input is gate g.
	dffsFedBy [][]int32

	stats    Stats
	vecIndex int
}

type injection struct {
	lane int
	pin  int // faults.OutPin for output forcing
	val  logic.V
}

// New builds a PROOFS simulator over a stuck-at universe.
func New(u *faults.Universe) (*Sim, error) {
	for i := range u.Faults {
		if !u.Faults[i].Kind.Stuck() {
			return nil, fmt.Errorf("proofs: fault %d is not stuck-at", i)
		}
	}
	c := u.Circuit
	n := len(c.Gates)
	s := &Sim{
		c: c, u: u,
		good:      goodsim.New(c),
		res:       faults.NewResult(u),
		diffs:     make([][]ffDiff, len(u.Faults)),
		v1:        make([]uint64, n),
		v0:        make([]uint64, n),
		stamp:     make([]int32, n),
		sched:     make([]bool, n),
		queue:     make([][]netlist.GateID, c.MaxLevel+1),
		inject:    make([][]injection, n),
		dffsFedBy: make([][]int32, n),
	}
	for i := range s.stamp {
		s.stamp[i] = -1
	}
	s.active = make([]int32, len(u.Faults))
	for i := range s.active {
		s.active[i] = int32(i)
	}
	for di, ff := range c.DFFs {
		d := c.Gate(ff).Fanin[0]
		s.dffsFedBy[d] = append(s.dffsFedBy[d], int32(di))
	}
	return s, nil
}

// Result returns the accumulated detections.
func (s *Sim) Result() *faults.Result { return s.res }

// Stats returns instrumentation counters.
func (s *Sim) Stats() Stats {
	st := s.stats
	st.MemBytes = int64(st.PeakDiffs)*8 + int64(len(s.v1))*17
	return st
}

// planes returns the group bit-planes of gate g, lazily initialized from
// the good value when the gate was not yet touched in this group.
func (s *Sim) planes(g netlist.GateID) (uint64, uint64) {
	if s.stamp[g] != s.epoch {
		s.initPlanes(g)
	}
	return s.v1[g], s.v0[g]
}

func (s *Sim) initPlanes(g netlist.GateID) {
	switch s.good.Val(g) {
	case logic.One:
		s.v1[g], s.v0[g] = ^uint64(0), 0
	case logic.Zero:
		s.v1[g], s.v0[g] = 0, ^uint64(0)
	default:
		s.v1[g], s.v0[g] = 0, 0
	}
	s.stamp[g] = s.epoch
}

func (s *Sim) setLane(g netlist.GateID, lane int, v logic.V) {
	if s.stamp[g] != s.epoch {
		s.initPlanes(g)
	}
	m := uint64(1) << uint(lane)
	s.v1[g] &^= m
	s.v0[g] &^= m
	switch v {
	case logic.One:
		s.v1[g] |= m
	case logic.Zero:
		s.v0[g] |= m
	}
}

func laneVal(v1, v0 uint64, lane int) logic.V {
	m := uint64(1) << uint(lane)
	switch {
	case v1&m != 0:
		return logic.One
	case v0&m != 0:
		return logic.Zero
	}
	return logic.X
}

func (s *Sim) schedule(g netlist.GateID) {
	if s.sched[g] || s.c.Gate(g).IsSource() {
		return
	}
	s.sched[g] = true
	s.queue[s.c.Gate(g).Level] = append(s.queue[s.c.Gate(g).Level], g)
}

func (s *Sim) scheduleFanouts(g netlist.GateID) {
	for _, fo := range s.c.Gate(g).Fanout {
		s.schedule(fo)
	}
}

// evalGroup evaluates gate g bit-parallel over the group, applying any pin
// injections, and returns the new planes.
func (s *Sim) evalGroup(g netlist.GateID, inj []injection) (uint64, uint64) {
	gate := s.c.Gate(g)
	var o1, o0 uint64
	first := true
	acc := func(a1, a0 uint64) {
		switch gate.Op.Base() {
		case logic.OpAnd:
			if first {
				o1, o0 = a1, a0
			} else {
				o1, o0 = o1&a1, o0|a0
			}
		case logic.OpOr:
			if first {
				o1, o0 = a1, a0
			} else {
				o1, o0 = o1|a1, o0&a0
			}
		case logic.OpXor:
			if first {
				o1, o0 = a1, a0
			} else {
				o1, o0 = o1&a0|o0&a1, o1&a1|o0&a0
			}
		default: // BUFF base
			o1, o0 = a1, a0
		}
		first = false
	}
	for p, f := range gate.Fanin {
		a1, a0 := s.planes(f)
		for _, in := range inj {
			if in.pin == p {
				m := uint64(1) << uint(in.lane)
				a1 &^= m
				a0 &^= m
				if in.val == logic.One {
					a1 |= m
				} else if in.val == logic.Zero {
					a0 |= m
				}
			}
		}
		acc(a1, a0)
	}
	if gate.Op.Inverting() {
		o1, o0 = o0, o1
	}
	for _, in := range inj {
		if in.pin == faults.OutPin {
			m := uint64(1) << uint(in.lane)
			o1 &^= m
			o0 &^= m
			if in.val == logic.One {
				o1 |= m
			} else if in.val == logic.Zero {
				o0 |= m
			}
		}
	}
	s.stats.Evals++
	return o1, o0
}

// Cycle simulates one clock period for the good machine and every active
// fault.
func (s *Sim) Cycle(vec []logic.V) {
	s.good.Apply(vec)

	for lo := 0; lo < len(s.active); lo += W {
		hi := lo + W
		if hi > len(s.active) {
			hi = len(s.active)
		}
		s.runGroup(s.active[lo:hi])
	}

	// Remove dropped faults from the active list.
	keep := s.active[:0]
	for _, fid := range s.active {
		if !s.res.Detected[fid] {
			keep = append(keep, fid)
		} else {
			s.diffs[fid] = nil
		}
	}
	s.active = keep

	s.good.Clock()
	s.vecIndex++
}

// runGroup propagates one group of up to W faults through the settled
// combinational network and computes their next flip-flop differences.
func (s *Sim) runGroup(group []int32) {
	s.epoch++
	s.stats.Groups++
	s.touched = s.touched[:0]
	c := s.c

	// Install FF state differences and fault injections.
	for lane, fid := range group {
		f := &s.u.Faults[fid]
		for _, d := range s.diffs[fid] {
			ff := c.DFFs[d.ff]
			s.setLane(ff, lane, d.val)
			s.scheduleFanouts(ff)
		}
		site := f.Gate
		sg := c.Gate(site)
		switch {
		case sg.Op == logic.OpInput:
			// PI output fault: force the source lane directly.
			s.setLane(site, lane, f.Kind.StuckValue())
			s.scheduleFanouts(site)
		case sg.Op == logic.OpDFF:
			if f.Pin == faults.OutPin {
				s.setLane(site, lane, f.Kind.StuckValue())
				s.scheduleFanouts(site)
			}
			// D-pin faults act at the clock edge; handled below.
		default:
			if len(s.inject[site]) == 0 {
				s.injGates = append(s.injGates, site)
			}
			s.inject[site] = append(s.inject[site],
				injection{lane: lane, pin: int(f.Pin), val: f.Kind.StuckValue()})
			s.schedule(site)
		}
	}

	// Event-driven propagation in level order.
	for l := 1; l < len(s.queue); l++ {
		bucket := s.queue[l]
		for i := 0; i < len(bucket); i++ {
			g := bucket[i]
			s.sched[g] = false
			o1, o0 := s.evalGroup(g, s.inject[g])
			p1, p0 := s.planes(g)
			if o1 != p1 || o0 != p0 {
				s.v1[g], s.v0[g] = o1, o0
				s.scheduleFanouts(g)
			}
			if len(s.dffsFedBy[g]) > 0 {
				s.touched = append(s.touched, g)
			}
		}
		s.queue[l] = s.queue[l][:0]
	}

	// Detection at the primary outputs.
	var det, pot uint64
	groupMask := ^uint64(0)
	if len(group) < W {
		groupMask = (uint64(1) << uint(len(group))) - 1
	}
	for _, po := range c.POs {
		if s.stamp[po] != s.epoch {
			continue // untouched: identical to good
		}
		if !s.good.Val(po).Binary() {
			continue
		}
		x := ^(s.v1[po] | s.v0[po])
		pot |= x
		if s.good.Val(po) == logic.One {
			det |= s.v0[po]
		} else {
			det |= s.v1[po]
		}
	}
	det &= groupMask
	pot &= groupMask
	for d := pot; d != 0; d &= d - 1 {
		s.res.PotDetect(group[bits.TrailingZeros64(d)])
	}
	for d := det; d != 0; d &= d - 1 {
		lane := bits.TrailingZeros64(d)
		s.res.Detect(group[lane], s.vecIndex)
	}

	// Next-state differences: only flip-flops whose D gate was touched can
	// differ from the new good state; plus explicit DFF-pin faults.
	var carry []ffDiff
	for lane, fid := range group {
		if s.res.Detected[fid] {
			s.diffs[fid] = s.diffs[fid][:0]
			continue
		}
		// A faulty flip-flop that directly feeds another flip-flop's D pin
		// latches its (source-side) difference through; sources never
		// enter touched, so collect these carries before rebuilding.
		carry = carry[:0]
		for _, d := range s.diffs[fid] {
			src := c.DFFs[d.ff]
			for _, di := range s.dffsFedBy[src] {
				carry = append(carry, ffDiff{ff: di, val: d.val})
			}
		}
		nd := s.diffs[fid][:0]
		for _, g := range s.touched {
			for _, di := range s.dffsFedBy[g] {
				goodD := s.good.Val(g)
				fv := laneVal(s.v1[g], s.v0[g], lane)
				if fv != goodD {
					nd = append(nd, ffDiff{ff: di, val: fv})
				}
			}
		}
		for _, ce := range carry {
			goodNewQ := s.good.Val(c.Gate(c.DFFs[ce.ff]).Fanin[0])
			nd = setDiff(nd, ce.ff, ce.val, goodNewQ)
		}
		// Faults sited on sources feeding D pins, or on the DFF itself.
		f := &s.u.Faults[fid]
		nd = s.applyDFFSiteFault(nd, f, lane)
		s.diffs[fid] = nd
	}
	cur := 0
	for _, d := range s.diffs {
		cur += len(d)
	}
	if cur > s.stats.PeakDiffs {
		s.stats.PeakDiffs = cur
	}

	// Clear injections.
	for _, g := range s.injGates {
		s.inject[g] = s.inject[g][:0]
	}
	s.injGates = s.injGates[:0]
}

// applyDFFSiteFault folds persistent DFF-sited fault effects into the new
// difference list: an output stuck-at pins the FF state; a D-pin stuck-at
// pins the latched value; and a forced source (PI/DFF output fault)
// feeding a D pin latches through.
func (s *Sim) applyDFFSiteFault(nd []ffDiff, f *faults.Fault, lane int) []ffDiff {
	c := s.c
	site := c.Gate(f.Gate)
	// Forced sources (PI output fault or DFF output fault) directly
	// feeding D pins: the forced value latches into those FFs.
	if (site.Op == logic.OpInput || (site.Op == logic.OpDFF && f.Pin == faults.OutPin)) &&
		len(s.dffsFedBy[f.Gate]) > 0 {
		for _, di := range s.dffsFedBy[f.Gate] {
			goodD := s.good.Val(f.Gate)
			nd = setDiff(nd, di, f.Kind.StuckValue(), goodD)
		}
	}
	if site.Op != logic.OpDFF {
		return nd
	}
	di := int32(-1)
	for i, ff := range c.DFFs {
		if ff == f.Gate {
			di = int32(i)
			break
		}
	}
	goodNewQ := s.good.Val(site.Fanin[0])
	switch f.Pin {
	case faults.OutPin:
		nd = setDiff(nd, di, f.Kind.StuckValue(), goodNewQ)
	case 0:
		nd = setDiff(nd, di, f.Kind.StuckValue(), goodNewQ)
	}
	return nd
}

// setDiff sets or clears the difference entry for one FF.
func setDiff(nd []ffDiff, di int32, v, goodNew logic.V) []ffDiff {
	for i := range nd {
		if nd[i].ff == di {
			if v == goodNew {
				return append(nd[:i], nd[i+1:]...)
			}
			nd[i].val = v
			return nd
		}
	}
	if v != goodNew {
		nd = append(nd, ffDiff{ff: di, val: v})
	}
	return nd
}

// Run simulates the whole vector set.
func (s *Sim) Run(vs *vectors.Set) *faults.Result {
	if vs.NumPIs != len(s.c.PIs) {
		panic(fmt.Sprintf("proofs: vector width %d, circuit has %d PIs", vs.NumPIs, len(s.c.PIs)))
	}
	for _, v := range vs.Vecs {
		s.Cycle(v)
	}
	return s.res
}
