package csim

import (
	"time"

	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/obs"
)

// Cycle simulates one clock period: apply the vector, settle the
// combinational network, look for detections at the primary outputs, then
// clock the flip-flops (good machine and every faulty machine together).
func (s *Simulator) Cycle(vec []logic.V) {
	// Observability is published once per cycle (never per event): with a
	// sink attached the cycle is timed and the counters flushed at the
	// end; without one this is a single nil check.
	var cycleStart time.Time
	if s.sink != nil {
		cycleStart = time.Now()
	}
	// Re-arm macros whose transition faults fired a delayed edge last
	// cycle: their elements must be re-examined even without new events.
	for _, r := range s.retrig {
		s.retrigOn[r] = false
		s.scheduleRoot(r)
	}
	s.retrig = s.retrig[:0]
	if s.firstCycle {
		// Evaluate everything once so that fault activation under the
		// initial all-X state is established; afterwards events carry all
		// changes.
		s.firstCycle = false
		for _, lv := range s.plan.Levels {
			for _, r := range lv {
				s.scheduleRoot(r)
			}
		}
	}
	s.applyPIs(vec)
	s.settle()
	s.detect()
	s.clock()
	s.vecIndex++
	if s.sink != nil {
		s.sink.flush(s.Stats(), time.Since(cycleStart))
	}
}

// applyPIs asserts the vector on the primary inputs. Every PI's local
// fault list (output stuck-ats) is re-examined each cycle; the lists are
// tiny, and this keeps fault activation exact.
//
//simlint:hotpath
func (s *Simulator) applyPIs(vec []logic.V) {
	for i, pi := range s.c.PIs {
		newGood := vec[i].Norm()
		oldGood := s.goodVal[pi]
		s.goodVal[pi] = newGood
		anyEvent := newGood != oldGood

		ownVis := mkCursor(&s.vis[pi])
		loc := s.locals[pi]
		li := 0
		nb := newListBuilder()
		for {
			f := s.sentinel
			if fv := s.fault(ownVis.cur); fv < f {
				f = fv
			}
			if li < len(loc) && loc[li] < f {
				f = loc[li]
			}
			if f >= s.sentinel {
				break
			}
			ownIdx := int32(-1)
			if s.fault(ownVis.cur) == f {
				ownIdx = ownVis.cur
				ownVis.advance(s)
			}
			isLocal := li < len(loc) && loc[li] == f
			if isLocal {
				li++
			}
			if s.dropped[f] {
				if ownIdx >= 0 {
					s.free(ownIdx)
				}
				continue
			}
			newOut := newGood
			if isLocal {
				flt := &s.u.Faults[f]
				if flt.Pin == faults.OutPin && flt.Kind.Stuck() {
					newOut = flt.Kind.StuckValue()
				}
			}
			oldOut := oldGood
			if ownIdx >= 0 {
				oldOut = s.arena[ownIdx].word.Out()
			}
			if newOut == newGood {
				if ownIdx >= 0 {
					s.free(ownIdx)
					s.fev(obs.FaultConverged, pi, f)
				}
			} else {
				w := logic.PackWord(nil, newOut)
				if ownIdx < 0 {
					ownIdx = s.alloc(f, w, 0)
					s.fev(obs.FaultDiverged, pi, f)
					// A PI element always carries a differing output.
					s.fev(obs.FaultVisible, pi, f)
				} else {
					s.arena[ownIdx].word = w
				}
				nb.append(s, ownIdx)
			}
			if newOut != oldOut {
				anyEvent = true
			}
		}
		s.vis[pi] = nb.finish(s)
		if anyEvent {
			s.notify(pi)
		}
	}
}

// settle drains the event queue in level order. Consumers live at strictly
// higher macro levels than producers, so one sweep suffices.
//
//simlint:hotpath
func (s *Simulator) settle() {
	for l := 1; l < len(s.queue); l++ {
		bucket := s.queue[l]
		for i := 0; i < len(bucket); i++ {
			s.evalRoot(bucket[i])
		}
		s.queue[l] = s.queue[l][:0]
	}
}

// detect scans the visible lists of the primary outputs: a fault whose
// machine drives a binary value different from a binary good value is
// detected and dropped.
//
//simlint:hotpath
func (s *Simulator) detect() {
	// Pass 1: potential detections (good binary, faulty X). Recorded
	// before any dropping this cycle so that PO processing order cannot
	// hide an X observation behind a same-cycle hard detection.
	for _, po := range s.c.POs {
		good := s.goodVal[po]
		if !good.Binary() {
			continue
		}
		cu := mkCursor(&s.vis[po])
		for s.fault(cu.cur) < s.sentinel {
			f := s.fault(cu.cur)
			if s.dropped[f] {
				s.free(cu.unlink(s))
				continue
			}
			if !s.arena[cu.cur].word.Out().Binary() {
				s.res.PotDetect(f)
				s.fev(obs.FaultPotDetected, po, f)
			}
			cu.advance(s)
		}
	}
	dropsHappened := false
	for _, po := range s.c.POs {
		good := s.goodVal[po]
		cu := mkCursor(&s.vis[po])
		for s.fault(cu.cur) < s.sentinel {
			f := s.fault(cu.cur)
			if s.dropped[f] {
				s.free(cu.unlink(s))
				continue
			}
			out := s.arena[cu.cur].word.Out()
			if good.Binary() && out.Binary() && out != good {
				s.dropped[f] = true
				s.res.Detect(f, s.vecIndex)
				s.stats.Detections++
				s.fev(obs.FaultDetected, po, f)
				// Detection drops the fault; its elements are reclaimed
				// event-driven from here on.
				s.fev(obs.FaultDropped, po, f)
				s.free(cu.unlink(s))
				dropsHappened = true
				continue
			}
			cu.advance(s)
		}
	}
	if s.cfg.EagerDrop && dropsHappened {
		s.scanDropAll()
	}
}

// scanDropAll is the ablation alternative to event-driven dropping: scan
// every list in the circuit and reclaim elements of detected faults
// immediately (the paper's "no effective scheme to search them without
// scanning the whole circuit").
func (s *Simulator) scanDropAll() {
	sweep := func(head *int32) {
		cu := mkCursor(head)
		for s.fault(cu.cur) < s.sentinel {
			if s.dropped[s.fault(cu.cur)] {
				s.free(cu.unlink(s))
				continue
			}
			cu.advance(s)
		}
	}
	for i := range s.c.Gates {
		sweep(&s.vis[i])
		sweep(&s.inv[i])
	}
}

// clock latches every flip-flop: good machine and all faulty machines.
// Phase one computes every DFF's next state from the pre-clock values;
// phase two commits, so FF-to-FF chains latch simultaneously.
//
//simlint:hotpath
func (s *Simulator) clock() {
	pendEvent := s.dffEvent

	for di, ff := range s.c.DFFs {
		d := s.c.Gate(ff).Fanin[0]
		newGoodQ := s.goodVal[d]
		oldGoodQ := s.goodVal[ff]
		s.newQ[di] = newGoodQ
		anyEvent := newGoodQ != oldGoodQ

		pend := s.newQLists[di][:0]
		dvis := mkCursor(&s.vis[d])
		ownVis := mkCursor(&s.vis[ff])
		loc := s.locals[ff]
		li := 0
		for {
			f := s.sentinel
			if fv := s.fault(dvis.cur); fv < f {
				f = fv
			}
			if fv := s.fault(ownVis.cur); fv < f {
				f = fv
			}
			if li < len(loc) && loc[li] < f {
				f = loc[li]
			}
			if f >= s.sentinel {
				break
			}
			var ownIdx int32 = -1
			if s.fault(ownVis.cur) == f {
				ownIdx = ownVis.cur
				ownVis.advance(s) // read-only walk; commit frees the old list
			}
			isLocal := li < len(loc) && loc[li] == f
			if isLocal {
				li++
			}
			inD := s.fault(dvis.cur) == f
			dRaw := newGoodQ
			if inD {
				dRaw = s.arena[dvis.cur].word.Out()
				dvis.advance(s)
			}
			if s.dropped[f] {
				continue // old elements reclaimed at commit
			}
			newQv := dRaw
			if isLocal {
				flt := &s.u.Faults[f]
				switch {
				case flt.Pin == 0 && flt.Kind.Stuck():
					newQv = flt.Kind.StuckValue()
				case flt.Pin == 0: // transition fault on the D pin
					prev := s.prevDriver[f]
					newQv = faults.TransitionFV(flt.Kind, prev, dRaw)
					s.prevDriver[f] = dRaw
				case flt.Pin == faults.OutPin && flt.Kind.Stuck():
					newQv = flt.Kind.StuckValue()
				}
			}
			oldQ := oldGoodQ
			if ownIdx >= 0 {
				oldQ = s.arena[ownIdx].word.Out()
			}
			if newQv != newGoodQ {
				pend = append(pend, pendingElem{fault: f, word: logic.PackWord(nil, newQv)})
				// The faulty state survives the clock edge: the only way a
				// fault outlives the cycle that activated it.
				s.fev(obs.FaultLatched, ff, f)
			}
			if newQv != oldQ {
				anyEvent = true
			}
		}
		s.newQLists[di] = pend
		pendEvent[di] = anyEvent
	}

	// Commit.
	for di, ff := range s.c.DFFs {
		// Reclaim the old state elements.
		cu := mkCursor(&s.vis[ff])
		for s.fault(cu.cur) < s.sentinel {
			s.free(cu.unlink(s))
		}
		s.goodVal[ff] = s.newQ[di]
		nb := newListBuilder()
		for _, pe := range s.newQLists[di] {
			nb.append(s, s.alloc(pe.fault, pe.word, 0))
		}
		s.vis[ff] = nb.finish(s)
		if pendEvent[di] {
			s.notify(ff)
		}
	}
}
