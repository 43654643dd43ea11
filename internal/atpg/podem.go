package atpg

import (
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
)

// target attempts to derive a detecting sequence for g.flt. It returns the
// sequence (one vector per frame, X-filled per options) and whether the
// fault was detected.
func (g *gen) target() ([][]logic.V, bool) {
	distFF, reachable := g.ffDistanceToPO()
	if !reachable {
		g.untestable = true
		return nil, false
	}
	backtracks := 0
	exhaustedEverywhere := true
	for k := distFF + 1; k <= g.opts.MaxFrames; k++ {
		g.setupFrames(k)
		aFrame := k - 1 - distFF
		ok, exhausted := g.podem(aFrame, &backtracks)
		if ok {
			return g.extractVectors(), true
		}
		if !exhausted {
			exhaustedEverywhere = false
		}
		if backtracks >= g.opts.MaxBacktrack {
			return nil, false
		}
	}
	g.untestable = exhaustedEverywhere
	return nil, false
}

// ffDistanceToPO returns the minimum number of flip-flop crossings on any
// path from the fault site to a primary output (0-1 BFS), and whether a PO
// is reachable at all.
func (g *gen) ffDistanceToPO() (int, bool) {
	c := g.c
	const inf = 1 << 30
	dist := make([]int, len(c.Gates))
	for i := range dist {
		dist[i] = inf
	}
	// Deque for 0-1 BFS.
	dq := make([]netlist.GateID, 0, 64)
	start := g.flt.Gate
	dist[start] = 0
	dq = append(dq, start)
	for len(dq) > 0 {
		id := dq[0]
		dq = dq[1:]
		gt := c.Gate(id)
		for _, fo := range gt.Fanout {
			w := 0
			if c.Gate(fo).Op == logic.OpDFF {
				w = 1
			}
			if nd := dist[id] + w; nd < dist[fo] {
				dist[fo] = nd
				if w == 0 {
					dq = append([]netlist.GateID{fo}, dq...)
				} else {
					dq = append(dq, fo)
				}
			}
		}
	}
	best := inf
	for _, po := range c.POs {
		if dist[po] < best {
			best = dist[po]
		}
	}
	return best, best < inf
}

func (g *gen) setupFrames(k int) {
	g.frames = g.frames[:0]
	for t := 0; t < k; t++ {
		g.frames = append(g.frames, frame{
			val:   make([]pair, len(g.c.Gates)),
			piSet: make([]bool, len(g.c.PIs)),
			piVal: make([]logic.V, len(g.c.PIs)),
		})
	}
	g.decisions = g.decisions[:0]
	g.simulate(0)
}

// podem runs the decision search with the activation objective pinned at
// frame aFrame. Returns (detected, searchExhausted).
func (g *gen) podem(aFrame int, backtracks *int) (bool, bool) {
	for {
		if g.detected() >= 0 {
			return true, false
		}
		obj, ok := g.objective(aFrame)
		if ok {
			if piFrame, pi, val, found := g.backtrace(obj); found {
				g.assign(piFrame, pi, val, false)
				continue
			}
		}
		// No objective reachable: undo the most recent unflipped decision.
		if !g.backtrack(backtracks) {
			return false, true
		}
		if *backtracks >= g.opts.MaxBacktrack {
			return false, false
		}
	}
}

func (g *gen) assign(frame, pi int, val logic.V, flipped bool) {
	fr := &g.frames[frame]
	fr.piSet[pi] = true
	fr.piVal[pi] = val
	g.decisions = append(g.decisions, decision{frame: frame, pi: pi, val: val, flipped: flipped})
	g.simulate(frame)
}

// backtrack pops flipped decisions and flips the newest unflipped one.
func (g *gen) backtrack(backtracks *int) bool {
	for len(g.decisions) > 0 {
		d := g.decisions[len(g.decisions)-1]
		g.decisions = g.decisions[:len(g.decisions)-1]
		fr := &g.frames[d.frame]
		fr.piSet[d.pi] = false
		if !d.flipped {
			*backtracks++
			g.assign(d.frame, d.pi, d.val.Not(), true)
			return true
		}
	}
	// All decisions exhausted; restore the undecided state.
	g.simulate(0)
	return false
}

// simulate recomputes the dual-rail values of frames from..end.
func (g *gen) simulate(from int) {
	c := g.c
	f := g.flt
	for t := from; t < len(g.frames); t++ {
		fr := &g.frames[t]
		for i, pi := range c.PIs {
			v := logic.X
			if fr.piSet[i] {
				v = fr.piVal[i]
			}
			p := pair{g: v, f: v}
			if f.Gate == pi && f.Pin == faults.OutPin {
				p.f = f.Kind.StuckValue()
			}
			fr.val[pi] = p
		}
		for _, ff := range c.DFFs {
			var p pair
			if t == 0 {
				p = pair{g: logic.X, f: logic.X}
			} else {
				d := c.Gate(ff).Fanin[0]
				p = g.frames[t-1].val[d]
				if f.Gate == ff && f.Pin == 0 {
					p.f = f.Kind.StuckValue()
				}
			}
			if f.Gate == ff && f.Pin == faults.OutPin {
				p.f = f.Kind.StuckValue()
			}
			fr.val[ff] = p
		}
		var gi, fi [logic.MaxPins]logic.V
		for _, lv := range c.Levels {
			for _, id := range lv {
				gt := c.Gate(id)
				for j, fin := range gt.Fanin {
					p := fr.val[fin]
					gi[j], fi[j] = p.g, p.f
					if f.Gate == id && int(f.Pin) == j {
						fi[j] = f.Kind.StuckValue()
					}
				}
				out := pair{
					g: logic.Eval(gt.Op, gi[:len(gt.Fanin)]),
					f: logic.Eval(gt.Op, fi[:len(gt.Fanin)]),
				}
				if f.Gate == id && f.Pin == faults.OutPin {
					out.f = f.Kind.StuckValue()
				}
				fr.val[id] = out
			}
		}
	}
}

// detected returns the earliest frame whose primary outputs expose the
// fault, or -1.
func (g *gen) detected() int {
	for t := range g.frames {
		for _, po := range g.c.POs {
			if g.frames[t].val[po].isD() {
				return t
			}
		}
	}
	return -1
}

// objective picks the next value objective: first activate the fault at
// aFrame, then advance the D-frontier toward the outputs.
type objectiveT struct {
	gate  netlist.GateID
	frame int
	val   logic.V
}

func (g *gen) objective(aFrame int) (objectiveT, bool) {
	c := g.c
	f := g.flt

	// Activation: the fault-site line must carry the complement of the
	// stuck value in some frame early enough (<= aMax) that the effect can
	// still cross the required number of flip-flops before the last frame.
	siteLine := f.Gate
	if f.Pin != faults.OutPin {
		siteLine = c.Gate(f.Gate).Fanin[f.Pin]
	}
	want := f.Kind.StuckValue().Not()
	aMax := aFrame
	if aMax >= len(g.frames) {
		aMax = len(g.frames) - 1
	}
	if g.anyD() < 0 {
		activated := false
		for t := 0; t <= aMax; t++ {
			if g.frames[t].val[siteLine].g == want {
				activated = true
				break
			}
		}
		if !activated {
			// Prefer the latest still-useful frame: it leaves the most
			// room for state setup in the frames before it.
			for t := aMax; t >= 0; t-- {
				if g.frames[t].val[siteLine].g == logic.X {
					return objectiveT{gate: siteLine, frame: t, val: want}, true
				}
			}
			return objectiveT{}, false // pinned to the stuck value everywhere
		}
		// Activated but no binary divergence: an input-pin fault on a
		// combinational gate still needs its site gate sensitized.
		if f.Pin != faults.OutPin && !c.Gate(f.Gate).IsSource() {
			for t := 0; t <= aMax; t++ {
				if g.frames[t].val[siteLine].g == want {
					if obj, ok := g.sensitizeGate(f.Gate, t, int(f.Pin)); ok {
						return obj, true
					}
				}
			}
		}
		return objectiveT{}, false
	}

	// Propagation: pick a D-frontier gate and make one of its unassigned
	// inputs non-controlling.
	for t := range g.frames {
		fr := &g.frames[t]
		for i := range c.Gates {
			gt := &c.Gates[i]
			if gt.IsSource() || fr.val[i].isD() {
				continue
			}
			if fr.val[i].g != logic.X && fr.val[i].f != logic.X {
				continue // fully resolved, not extendable
			}
			hasD := false
			for _, fin := range gt.Fanin {
				if fr.val[fin].isD() {
					hasD = true
					break
				}
			}
			if !hasD {
				continue
			}
			if obj, ok := g.sensitizeGate(netlist.GateID(i), t, -2); ok {
				return obj, true
			}
		}
	}
	return objectiveT{}, false
}

// anyD returns a frame containing a binary good/faulty divergence, or -1.
func (g *gen) anyD() int {
	for t := range g.frames {
		for i := range g.c.Gates {
			if g.frames[t].val[i].isD() {
				return t
			}
		}
	}
	return -1
}

// sensitizeGate proposes an objective that drives one X input of gate id
// (other than skipPin) to the gate's non-controlling value.
func (g *gen) sensitizeGate(id netlist.GateID, t, skipPin int) (objectiveT, bool) {
	gt := g.c.Gate(id)
	nc := logic.One
	if cv, ok := gt.Op.Controlling(); ok {
		nc = cv.Not()
	} else if g.rng.Intn(2) == 0 {
		nc = logic.Zero // XOR family: any binary value sensitizes
	}
	for j, fin := range gt.Fanin {
		if j == skipPin {
			continue
		}
		p := g.frames[t].val[fin]
		if p.g == logic.X {
			return objectiveT{gate: fin, frame: t, val: nc}, true
		}
	}
	return objectiveT{}, false
}

// backtrace walks an objective backwards through X-valued good-machine
// lines to an unassigned primary input decision. It explores alternative
// X inputs depth-first, so a dead end (the frame-0 flip-flop boundary)
// does not hide reachable primary inputs on sibling paths.
func (g *gen) backtrace(obj objectiveT) (frame, pi int, val logic.V, ok bool) {
	seen := make(map[[2]int32]bool)
	return g.backtraceDFS(obj.gate, obj.frame, obj.val, seen)
}

func (g *gen) backtraceDFS(gate netlist.GateID, t int, v logic.V, seen map[[2]int32]bool) (int, int, logic.V, bool) {
	key := [2]int32{int32(gate), int32(t)}
	if seen[key] {
		return 0, 0, 0, false
	}
	seen[key] = true
	c := g.c
	gt := c.Gate(gate)
	switch gt.Op {
	case logic.OpInput:
		for i, p := range c.PIs {
			if p == gate {
				if g.frames[t].piSet[i] {
					return 0, 0, 0, false
				}
				return t, i, v, true
			}
		}
		return 0, 0, 0, false
	case logic.OpDFF:
		if t == 0 {
			return 0, 0, 0, false // initial state is X, unjustifiable
		}
		return g.backtraceDFS(gt.Fanin[0], t-1, v, seen)
	}
	base := v
	if gt.Op.Inverting() {
		base = v.Not()
	}
	var targetVal logic.V
	if cv, hasCtl := gt.Op.Controlling(); hasCtl {
		if base == cv {
			targetVal = cv // one controlling input suffices
		} else {
			targetVal = cv.Not() // all inputs must be non-controlling
		}
	} else {
		// XOR family: any binary value works; bias randomly.
		targetVal = logic.V(g.rng.Intn(2))
	}
	for _, fin := range gt.Fanin {
		if g.frames[t].val[fin].g != logic.X {
			continue
		}
		if fr, pi, val, ok := g.backtraceDFS(fin, t, targetVal, seen); ok {
			return fr, pi, val, ok
		}
	}
	return 0, 0, 0, false
}

// extractVectors emits the PI assignments of frames 0..detectionFrame,
// filling don't-cares per options.
func (g *gen) extractVectors() [][]logic.V {
	last := g.detected()
	if last < 0 {
		last = len(g.frames) - 1
	}
	out := make([][]logic.V, 0, last+1)
	for t := 0; t <= last; t++ {
		fr := &g.frames[t]
		vec := make([]logic.V, len(g.c.PIs))
		for i := range vec {
			switch {
			case fr.piSet[i]:
				vec[i] = fr.piVal[i]
			case g.opts.FillRandom:
				vec[i] = logic.V(g.rng.Intn(2))
			default:
				vec[i] = logic.Zero
			}
		}
		out = append(out, vec)
	}
	return out
}
