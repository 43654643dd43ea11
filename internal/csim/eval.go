package csim

import (
	"math/bits"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// cursor walks a sorted, sentinel-terminated fault list. prev tracking
// allows in-place unlinking (event-driven fault dropping happens during
// ordinary traversals, as in §2.2).
type cursor struct {
	head *int32
	prev int32 // arena index of the previous element; -1 = at head slot
	cur  int32
}

func mkCursor(head *int32) cursor { return cursor{head: head, prev: -1, cur: *head} }

// fault returns the fault ID at the cursor (the sentinel's ID at list end).
func (s *Simulator) fault(idx int32) int32 { return s.arena[idx].fault }

// advance moves past the current element, keeping it linked.
func (cu *cursor) advance(s *Simulator) {
	cu.prev = cu.cur
	cu.cur = s.arena[cu.cur].next
}

// unlink removes the current element from the list and returns its index;
// the cursor moves to the next element.
func (cu *cursor) unlink(s *Simulator) int32 {
	idx := cu.cur
	nxt := s.arena[idx].next
	if cu.prev < 0 {
		*cu.head = nxt
	} else {
		s.arena[cu.prev].next = nxt
	}
	cu.cur = nxt
	return idx
}

// listBuilder assembles a sorted list by appending in merge order.
type listBuilder struct {
	head, tail int32 // tail = -1 while empty
}

func newListBuilder() listBuilder { return listBuilder{head: 0, tail: -1} }

func (b *listBuilder) append(s *Simulator, idx int32) {
	if b.tail < 0 {
		b.head = idx
	} else {
		s.arena[b.tail].next = idx
	}
	b.tail = idx
}

// finish terminates the list with the sentinel and returns its head.
func (b *listBuilder) finish(s *Simulator) int32 {
	if b.tail < 0 {
		return 0
	}
	s.arena[b.tail].next = 0
	return b.head
}

// eventSrc is one distinct leaf gate with pending events feeding the gate
// under evaluation, with the set of macro pins it drives.
type eventSrc struct {
	gate netlist.GateID
	pins uint32
	cu   cursor
	fv   int32 // cached fault ID at the cursor
}

// notify schedules the consumers of gate g after an output event (good or
// any faulty machine).
//
//simlint:hotpath
func (s *Simulator) notify(g netlist.GateID) {
	for _, cs := range s.consumers[g] {
		s.pinEvent[cs.root] |= 1 << uint(cs.pin)
		s.scheduleRoot(cs.root)
	}
}

// scheduleRoot enqueues a macro root at its level, once per phase. The
// level buckets keep their capacity across cycles, so the append below is
// allocation-free in the steady state.
//
//simlint:hotpath
func (s *Simulator) scheduleRoot(r netlist.GateID) {
	if s.sched[r] {
		return
	}
	s.sched[r] = true
	s.stats.Scheds++
	l := s.plan.RootLevel[r]
	s.queue[l] = append(s.queue[l], r)
}

func (s *Simulator) retrigger(r netlist.GateID) {
	if !s.retrigOn[r] {
		s.retrigOn[r] = true
		s.retrig = append(s.retrig, r)
	}
}

// evalRoot evaluates one macro root: the good machine plus the merged
// stream of (a) its own fault lists, (b) the visible lists of every fanin
// that had an event this phase (the multi-list traversal of [3]), and
// (c) the faults sited inside the macro. Its own lists are rebuilt in
// sorted order as the merge runs.
//
//simlint:hotpath
func (s *Simulator) evalRoot(r netlist.GateID) {
	s.sched[r] = false
	mask := s.pinEvent[r]
	s.pinEvent[r] = 0

	m := s.plan.ByRoot[r]
	k := m.NumLeaves()
	gin := s.gin[:k]
	for i, l := range m.Leaves {
		gin[i] = s.goodVal[l]
	}
	oldGW := s.goodWord[r]
	oldGoodOut := oldGW.Out()
	var newGoodOut logic.V
	var newGW logic.Word
	goodInChanged := logic.PackWord(gin, 0) != oldGW.InputBits()
	if !goodInChanged {
		newGoodOut = oldGoodOut
		newGW = oldGW
	} else {
		newGoodOut = m.Eval(gin, s.frame)
		s.stats.GoodEvals++
		newGW = logic.PackWord(gin, newGoodOut)
		s.goodWord[r] = newGW
		s.goodVal[r] = newGoodOut
	}
	anyEvent := newGoodOut != oldGoodOut

	// Distinct event sources with their pin sets.
	var srcsArr [logic.MaxPins]eventSrc
	srcs := srcsArr[:0]
	for pins := mask; pins != 0; {
		p := bits.TrailingZeros32(pins)
		pins &= pins - 1
		g := m.Leaves[p]
		found := false
		for i := range srcs {
			if srcs[i].gate == g {
				srcs[i].pins |= 1 << uint(p)
				found = true
				break
			}
		}
		if !found {
			srcs = append(srcs, eventSrc{gate: g, pins: 1 << uint(p), cu: mkCursor(&s.vis[g])})
		}
	}

	ownVis := mkCursor(&s.vis[r])
	ownInv := mkCursor(&s.inv[r])
	ownVisF := s.fault(ownVis.cur)
	ownInvF := s.fault(ownInv.cur)
	for i := range srcs {
		srcs[i].fv = s.fault(srcs[i].cu.cur)
	}
	loc := s.locals[r]
	li := 0
	locF := s.sentinel
	if li < len(loc) {
		locF = loc[li]
	}
	nbVis := newListBuilder()
	nbInv := newListBuilder()
	fin := s.fin[:k]

	for {
		f := ownVisF
		if ownInvF < f {
			f = ownInvF
		}
		for i := range srcs {
			if srcs[i].fv < f {
				f = srcs[i].fv
			}
		}
		if locF < f {
			f = locF
		}
		if f >= s.sentinel {
			break
		}

		// Claim the machine's own element, if present, and move past it;
		// the old own lists are being consumed and rebuilt.
		ownIdx := int32(-1)
		if ownVisF == f {
			ownIdx = ownVis.cur
			ownVis.advance(s)
			ownVisF = s.fault(ownVis.cur)
		} else if ownInvF == f {
			ownIdx = ownInv.cur
			ownInv.advance(s)
			ownInvF = s.fault(ownInv.cur)
		}
		isLocal := locF == f
		if isLocal {
			li++
			locF = s.sentinel
			if li < len(loc) {
				locF = loc[li]
			}
		}

		if s.dropped[f] {
			// Event-driven dropping: reclaim elements of detected faults
			// wherever a traversal meets them.
			if ownIdx >= 0 {
				s.free(ownIdx)
			}
			for i := range srcs {
				if srcs[i].fv == f {
					s.free(srcs[i].cu.unlink(s))
					srcs[i].fv = s.fault(srcs[i].cu.cur)
				}
			}
			continue
		}

		// Assemble the machine's input values: stored word (or good) with
		// event pins refreshed from the fanin lists. Tracking whether any
		// pin actually changed lets unchanged machines skip re-evaluation
		// entirely — the point of keeping redundant input copies (§2).
		var oldOut logic.V
		if ownIdx >= 0 {
			w := s.arena[ownIdx].word
			oldOut = w.Out()
			for i := 0; i < k; i++ {
				fin[i] = w.In(i)
			}
		} else {
			oldOut = oldGoodOut
			copy(fin, gin)
		}
		changed := false
		for i := range srcs {
			sc := &srcs[i]
			v := s.goodVal[sc.gate]
			if sc.fv == f {
				v = s.arena[sc.cu.cur].word.Out()
				sc.cu.advance(s)
				sc.fv = s.fault(sc.cu.cur)
			}
			for pins := sc.pins; pins != 0; {
				p := bits.TrailingZeros32(pins)
				pins &= pins - 1
				if fin[p] != v {
					fin[p] = v
					changed = true
				}
			}
		}

		isTransitionLocal := isLocal && !s.u.Faults[f].Kind.Stuck()
		skippable := !changed && !isTransitionLocal &&
			// A local stuck fault without an element was inactive at the
			// last evaluation; that holds only while the good inputs stay
			// put.
			!(isLocal && ownIdx < 0 && goodInChanged)
		if skippable {
			s.stats.Skips++
			if ownIdx < 0 {
				continue // still tracks the good machine implicitly
			}
			// Element exists and no input moved: the stored word is
			// current. Only its convergence/visibility status against the
			// (possibly changed) good word needs refreshing.
			newW := s.arena[ownIdx].word
			if newW == newGW {
				s.free(ownIdx)
				s.fev(obs.FaultConverged, r, f)
			} else if s.cfg.SplitLists && newW.Out() == newGoodOut {
				nbInv.append(s, ownIdx)
			} else {
				nbVis.append(s, ownIdx)
				// Visibility here can flip without a faulty-machine event:
				// the good output moved away from the stored faulty output.
				if newW.Out() != newGoodOut && oldOut == oldGoodOut {
					s.fev(obs.FaultVisible, r, f)
				}
			}
			continue // output unchanged: no event for this machine
		}

		// Evaluate the faulty machine; faults local to this macro are
		// injected functionally (§2.2 macro functional faults).
		var newOut logic.V
		if isLocal {
			flt := &s.u.Faults[f]
			if flt.Kind.Stuck() {
				newOut = m.EvalStuck(fin, s.frame, flt.Gate, int(flt.Pin), flt.Kind.StuckValue())
			} else {
				prev := s.prevDriver[f]
				var driver logic.V
				newOut, driver = m.EvalTransition(fin, s.frame, flt.Gate, int(flt.Pin), flt.Kind, prev)
				s.prevDriver[f] = driver
				// A delayed edge fires within the next cycle; the machine
				// must be re-evaluated then even with no new events.
				if faults.TransitionFV(flt.Kind, prev, driver) != driver {
					s.retrigger(r)
				}
			}
		} else {
			newOut = m.Eval(fin, s.frame)
		}
		s.stats.Evals++

		newW := logic.PackWord(fin, newOut)
		wasVis := ownIdx >= 0 && oldOut != oldGoodOut
		if newW == newGW {
			// Converged: state identical to the good machine.
			if ownIdx >= 0 {
				s.free(ownIdx)
				s.fev(obs.FaultConverged, r, f)
			}
		} else {
			if ownIdx < 0 {
				ownIdx = s.alloc(f, newW, 0)
				s.fev(obs.FaultDiverged, r, f)
			} else {
				s.arena[ownIdx].word = newW
			}
			if s.cfg.SplitLists && newOut == newGoodOut {
				nbInv.append(s, ownIdx)
			} else {
				nbVis.append(s, ownIdx)
				if newOut != newGoodOut && !wasVis {
					s.fev(obs.FaultVisible, r, f)
				}
			}
		}
		if newOut != oldOut {
			anyEvent = true
		}
	}
	s.vis[r] = nbVis.finish(s)
	s.inv[r] = nbInv.finish(s)
	if anyEvent {
		s.notify(r)
	}
}
