package compiled

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/csim"
	"repro/internal/faults"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/vectors"
)

// siteKind classifies a fault site once, so the per-pass hot path
// switches on a dense enum instead of re-deriving gate/pin/kind
// combinations.
type siteKind uint8

const (
	siteComb      siteKind = iota // stuck-at on a combinational gate (pin or output)
	sitePI                        // stuck-at on a primary-input line
	siteDFFOut                    // stuck-at on a flip-flop output
	siteDFFD                      // stuck-at on a flip-flop D pin
	siteCombTrans                 // transition fault on a combinational gate input
	siteDFFTrans                  // transition fault on a flip-flop D pin
)

// ffDiff is one faulty-machine state divergence: flip-flop ff (index
// into Circuit.DFFs) enters the next cycle holding val instead of the
// good value.
type ffDiff struct {
	ff  int32
	val logic.V
}

// ChunkFaults is the number of faults that share one load of a
// 64-cycle block's good planes. Loading per fault instead costs
// gates × 16 B per fault and block, which dominates on small
// circuits with long vector sets. A chunk is also the unit workers
// pull, so a run keeps at most one worker per chunk busy.
const ChunkFaults = 256

// Sizes of node, faultState and ffDiff for the memory accounting.
const nodeBytes, slotBytes, diffBytes = 64, 56, 8

// Node flags.
const (
	flagSched   uint8 = 1 << iota // queued for evaluation
	flagFeedsFF                   // some observable flip-flop samples this gate
	flagPO                        // the gate is a primary output
	flagDirty                     // written in the running pass: on the worker's undo list
	flagLoop                      // XOR/XNOR or over four inputs: evaluated by eval's fanin loop
)

// slotFanins is the number of fanin slots a node holds.
const slotFanins = 4

// node is everything a fault pass reads or writes about one gate, kept
// to exactly one cache line: evaluating a gate touches one line per
// fanin, one for itself and one per scheduled fanout.
type node struct {
	// v1, v0 are the gate's current planes: the good planes after
	// loadBlock and between passes, the faulty ones once a pass has
	// written the gate. A read never has to ask which.
	v1, v0 uint64
	g1, g0 uint64 // good planes of the loaded 64-cycle block
	level  int32
	// in holds the gate's first four fanins, the last one repeated into
	// the slots it leaves free: AND and OR are idempotent, so a gate
	// without flagLoop evaluates over exactly these four. Combinational
	// fanouts are Program.fanouts[outOff:outEnd].
	in             [slotFanins]netlist.GateID
	outOff, outEnd int32
	code           uint8
	flags          uint8
	_              [2]byte // pads the node to the 64 bytes a cache line holds
}

// faultState is what one live fault of a chunk carries from one pass to
// the next: across 64-cycle blocks, and for a flip-flop D-pin transition
// fault across cycles.
type faultState struct {
	f       *faults.Fault
	st      siteKind
	drv     netlist.GateID // transition faults: the site pin's driver
	prevDrv logic.V        // transition faults: the driver's value one cycle back
	cyc     int            // first cycle not yet simulated
	diffs   []ffDiff       // state differences entering cyc
}

// worker owns the mutable state of the fault passes: one node per gate
// and the state of one chunk of faults. Workers share the Program and
// the Trace read-only and nothing else.
type worker struct {
	// The pads keep a worker's list headers and counters, rewritten on
	// every write of a gate, off the cache lines of whatever the allocator
	// placed next to it — the next worker, for one: sharing a line there
	// halves two-worker speed.
	_ [64]byte

	p  *Program
	u  *faults.Universe
	tr *Trace
	// The run's faults are shard of an of-way split, n of them: the j-th
	// is fault shard + j*of, and a chunk is a range of j.
	shard, of, n int

	nodes   []node
	base    int  // first cycle of the loaded block
	lastLn  uint // last lane of the loaded block that holds a cycle
	queue   [][]netlist.GateID
	dirty   []netlist.GateID // written in the running pass: the undo list
	touched []netlist.GateID // of those, the gates a flip-flop samples
	pos     []netlist.GateID // of those, the primary outputs

	slots []faultState
	live  []int32

	// res is the run's one result: the worker writes only the faults of
	// the chunks it pulled, and counts its own detections.
	res       *faults.Result
	simulated int // faults of the chunks this worker ran
	opened    int // of those, the ones some output can see: the rest are never simulated
	detected  int // of those, the ones it detected
	evals     int // gates evaluated; each was scheduled exactly once for it
	passes    int // fresh propagations
	steps     int // in-place continuations of a pass
	curDiffs  int
	peakDiffs int
	_         [64]byte
}

// Sim is the csim-C fault simulator over one Program and one fault
// universe. A Sim is not safe for concurrent use; share the Program.
//
// The faults are cut into chunks of 256. A chunk walks the packed good
// trace block by block: each 64-cycle block's good planes are loaded
// into the nodes once, then every live fault of the chunk runs one pass
// over the block. A pass speculates that the faulty machine's
// flip-flop state equals the good machine's in every lane after the
// first; event-driven plane propagation then finds the earliest lane
// where a flip-flop input diverges and the result is kept exactly up to
// that lane. The lanes beyond it are what the speculation would yield
// from there too, so the pass continues in place: the true state
// differences go into the next lane of the flip-flop nodes and only
// their events propagate, lane by lane until the fault is detected or
// the block ends. Output-cone restriction falls out of the event
// discipline: only gates downstream of an injected difference are ever
// evaluated. Nor is a gate no primary output can see: the Program's
// fanout and flip-flop maps stop at the observable gates, and a fault
// sited outside them is never opened. Chunks are independent, so
// workers pull them off a shared counter.
type Sim struct {
	u     *faults.Universe
	pool  *Pool
	stats csim.Stats
}

// Stats returns the last run's instrumentation counters in the standard
// csim form, so harness tables, bench cells and the service's stats
// view consume csim-C runs unchanged.
func (s *Sim) Stats() csim.Stats { return s.stats }

// Workers returns how many workers a run over nfaults faults uses when
// asked for requested: at least one, at most one per chunk of 256
// faults, below which it would idle. With one job at a time a worker
// pays for itself from its first chunk on; a server saturated with
// sub-millisecond jobs gives some throughput back for it (DESIGN §12
// has both measurements).
func Workers(requested, nfaults int) int {
	return max(1, min(requested, numChunks(nfaults)))
}

// numChunks returns how many chunks nfaults faults are cut into.
func numChunks(nfaults int) int { return (nfaults + ChunkFaults - 1) / ChunkFaults }

// WorkerFunc observes the workers of a run. Worker i calls it on its own
// goroutine before it pulls its first chunk (done false) and after its
// last (done true), then with the number of faults it simulated and how
// many of those it detected.
type WorkerFunc func(worker int, done bool, simulated, detected int)

// Run simulates every fault of the universe over the vector sequence on
// the calling goroutine: RunFaults over shard 0 of 1 with one worker and
// no cancellation.
func (s *Sim) Run(vs *vectors.Set) *faults.Result {
	res, _ := s.RunFaults(context.Background(), vs, 0, 1, 1, nil) // a background context is never cancelled
	return res
}

// RunFaults simulates shard shard of an of-way split of the universe —
// the faults whose ID ≡ shard (mod of), in ascending order — over the
// vector sequence: one compiled good-machine pass building the packed
// trace, then the shard's fault chunks on Workers(workers, its size)
// workers that share it — the caller's goroutine is the first of them.
// The run's one result spans the whole universe; only the shard's faults
// can be detected in it, and each is written only by the worker that ran
// its chunk. Detections are bit-identical to serial.Simulate, including
// first-detection vector indices and potential (X at a sampled output)
// detections, and neither they nor the evaluation counts depend on the
// worker count; the counts of the of shards add up to those of shard 0
// of 1. ctx is checked between chunks and between a chunk's 64-cycle
// blocks; a cancelled run returns ctx.Err(). A panic on a worker,
// watch's included, comes back as an error with the stack. watch may be
// nil.
func (s *Sim) RunFaults(ctx context.Context, vs *vectors.Set, shard, of, workers int, watch WorkerFunc) (*faults.Result, error) {
	if shard < 0 || shard >= of {
		return nil, fmt.Errorf("compiled: shard %d outside [0, %d)", shard, of)
	}
	tr, gevals, err := s.pool.p.trace(ctx, vs)
	if err != nil {
		return nil, err
	}
	res := faults.NewResult(s.u)
	ws, err := s.runWorkers(ctx, tr, shard, of, res, workers, watch)
	if err != nil {
		return nil, err
	}
	stats := make([]csim.Stats, len(ws))
	for i, w := range ws {
		res.NumDet += w.detected
		stats[i] = csim.Stats{
			Evals:     w.evals,
			Scheds:    w.evals,
			Passes:    w.passes,
			Steps:     w.steps,
			PeakElems: w.peakDiffs,
			CurElems:  w.curDiffs,
			MemBytes:  w.memBytes(),
		}
	}
	s.stats = csim.MergeStats(stats...)
	s.stats.GoodEvals = int(gevals)
	s.stats.Detections = res.NumDet
	s.stats.MemBytes += tr.Bytes()
	s.pool.put(ws)
	return res, nil
}

// runWorkers runs the chunks of shard shard of an of-way split over the
// trace, writing their detections into res, and returns the workers
// that ran them: borrowed from the Sim's pool, or built when it has none
// idle. A worker that panics ends the run with an error carrying the
// stack instead of taking the process down. Only RunFaults returns workers to the pool,
// after it has read their counts and only from a run that ended without
// error, so one that stopped halfway through a pass is never used again.
func (s *Sim) runWorkers(ctx context.Context, tr *Trace, shard, of int, res *faults.Result, workers int, watch WorkerFunc) ([]*worker, error) {
	n := faults.ShardSize(s.u.NumFaults(), shard, of)
	chunks := numChunks(n)
	ws := make([]*worker, Workers(workers, n))
	for i := range ws {
		ws[i] = s.pool.get()
		ws[i].reset(s.u, tr, shard, of, n, res)
	}
	var (
		next atomic.Int64
		errs = make([]error, len(ws))
		wg   sync.WaitGroup
	)
	work := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				errs[i] = fmt.Errorf("compiled: worker %d: panic: %v\n%s", i, r, debug.Stack())
			}
		}()
		if watch != nil {
			watch(i, false, 0, 0)
		}
		if errs[i] = ws[i].run(ctx, &next, chunks); errs[i] == nil && watch != nil {
			watch(i, true, ws[i].simulated, ws[i].detected)
		}
	}
	for i := 1; i < len(ws); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			work(i)
		}(i)
	}
	work(0)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return ws, nil
}

// newWorker builds one worker's nodes from the program's structure.
func newWorker(p *Program) *worker {
	c := p.c
	// Three slice headers (72 B) of slack on either side keep the bucket
	// lengths, rewritten on every schedule, on cache lines of their own.
	nl := int(p.maxLevel) + 1
	w := &worker{
		p:     p,
		nodes: make([]node, len(c.Gates)),
		queue: make([][]netlist.GateID, nl+6)[3 : nl+3 : nl+3],
	}
	for i := range w.nodes {
		n := &w.nodes[i]
		n.level = c.Gates[i].Level
		n.code = p.code[i]
		if ins := c.Fanin(netlist.GateID(i)); len(ins) > 0 {
			for j := range n.in {
				n.in[j] = ins[min(j, len(ins)-1)]
			}
			if n.code >= opXor || len(ins) > slotFanins {
				n.flags |= flagLoop
			}
		}
		n.outOff, n.outEnd = p.fanoutOff[i], p.fanoutOff[i+1]
		if p.feedsFF(netlist.GateID(i)) {
			n.flags |= flagFeedsFF
		}
	}
	for _, po := range c.POs {
		w.nodes[po].flags |= flagPO
	}
	return w
}

// reset readies the worker for a run over the n faults of shard shard of
// an of-way split of u on trace tr, detecting into res: its counters
// start from zero, while its nodes, buckets, lists, slots and their
// state-difference lists keep what earlier runs grew them to.
func (w *worker) reset(u *faults.Universe, tr *Trace, shard, of, n int, res *faults.Result) {
	w.u, w.tr, w.shard, w.of, w.n, w.res = u, tr, shard, of, n, res
	m := min(ChunkFaults, n)
	if cap(w.slots) < m {
		grown := make([]faultState, m)
		copy(grown, w.slots[:cap(w.slots)])
		w.slots = grown
	}
	w.slots = w.slots[:m]
	if cap(w.live) < m {
		w.live = make([]int32, 0, m)
	}
	w.simulated, w.opened, w.detected, w.evals, w.passes, w.steps, w.curDiffs, w.peakDiffs = 0, 0, 0, 0, 0, 0, 0, 0
}

// memBytes accounts the worker's fault-pass state at its peak.
func (w *worker) memBytes() int64 {
	return int64(len(w.nodes))*nodeBytes + int64(len(w.slots))*slotBytes + int64(w.peakDiffs)*diffBytes
}

// run simulates chunks pulled off next until none is left or ctx ends.
func (w *worker) run(ctx context.Context, next *atomic.Int64, chunks int) error {
	for {
		k := int(next.Add(1)) - 1
		if k >= chunks {
			return nil
		}
		lo := k * ChunkFaults
		hi := min(lo+ChunkFaults, w.n)
		if err := w.runChunk(ctx, lo, hi); err != nil {
			return err
		}
		w.simulated += hi - lo
	}
}

// runChunk simulates the run's faults lo to hi-1 to detection or vector
// exhaustion, block-major: a block's good planes are loaded once for the
// whole chunk, and each live fault runs the block to its end before the
// next fault gets its turn.
//
//simlint:hotpath
func (w *worker) runChunk(ctx context.Context, lo, hi int) error {
	live := w.live[:0]
	for i := range hi - lo {
		fs := &w.slots[i]
		fs.f = &w.u.Faults[w.shard+(lo+i)*w.of]
		if !w.p.observable[fs.f.Gate] {
			// No output can see the site, so nothing the fault does can be
			// detected: it is never opened.
			continue
		}
		fs.st, fs.drv = w.classify(fs.f)
		fs.prevDrv = logic.X
		fs.cyc = 0
		fs.diffs = fs.diffs[:0]
		live = append(live, int32(i))
	}
	w.opened += len(live)
	for b := 0; b < w.tr.blocks && len(live) > 0; b++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		w.loadBlock(b)
		end := w.base + int(w.lastLn) + 1
		keep := live[:0]
		for _, si := range live {
			fs := &w.slots[si]
			detected := false
			for fs.cyc < end && !detected {
				detected = w.pass(fs)
			}
			if !detected {
				keep = append(keep, si)
			}
		}
		live = keep
	}
	return nil
}

// loadBlock copies block b's good planes into the nodes, as the good
// planes and as the current ones.
//
//simlint:hotpath
func (w *worker) loadBlock(b int) {
	v1, v0 := w.tr.block(b)
	for i := range w.nodes {
		n := &w.nodes[i]
		n.g1, n.g0 = v1[i], v0[i]
		n.v1, n.v0 = v1[i], v0[i]
	}
	w.base = b * wordW
	w.lastLn = uint(min(w.tr.cycles-w.base, wordW) - 1)
}

// classify resolves a fault to its site kind and, for transition
// faults, the site pin's driver gate.
func (w *worker) classify(f *faults.Fault) (siteKind, netlist.GateID) {
	op := w.p.c.Gate(f.Gate).Op
	if f.Kind.Stuck() {
		switch op {
		case logic.OpInput:
			return sitePI, netlist.NoGate
		case logic.OpDFF:
			if f.Pin == faults.OutPin {
				return siteDFFOut, netlist.NoGate
			}
			return siteDFFD, netlist.NoGate
		}
		return siteComb, netlist.NoGate
	}
	drv := w.p.c.Fanin(f.Gate)[f.Pin]
	if op == logic.OpDFF {
		return siteDFFTrans, drv
	}
	return siteCombTrans, drv
}

// forcePlanes overwrites the masked lanes of a plane pair with v.
func forcePlanes(a1, a0 uint64, v logic.V, m uint64) (uint64, uint64) {
	a1 &^= m
	a0 &^= m
	switch v {
	case logic.One:
		a1 |= m
	case logic.Zero:
		a0 |= m
	}
	return a1, a0
}

// mark records that the running pass changed gate g's planes. The first
// change marks the node dirty and lists it: for the undo that ends the
// pass, and for the checks that follow every propagation — the divergence
// cutoff and state carry read the flip-flop-sampled gates, detection
// reads the primary outputs.
//
//simlint:hotpath
func (w *worker) mark(g netlist.GateID, n *node) {
	if n.flags&flagDirty == 0 {
		n.flags |= flagDirty
		w.dirty = append(w.dirty, g)
		if n.flags&flagFeedsFF != 0 {
			w.touched = append(w.touched, g)
		}
		if n.flags&flagPO != 0 {
			w.pos = append(w.pos, g)
		}
	}
}

// store writes a gate's planes and returns the bits in which they differ
// from the ones it held: zero when the gate did not change.
func store(n *node, a1, a0 uint64) uint64 {
	d := (a1 ^ n.v1) | (a0 ^ n.v0)
	n.v1, n.v0 = a1, a0
	return d
}

// undo ends a pass: every gate it wrote is good again.
//
//simlint:hotpath
func (w *worker) undo() {
	for _, g := range w.dirty {
		n := &w.nodes[g]
		n.v1, n.v0 = n.g1, n.g0
		n.flags &^= flagDirty
	}
	w.dirty = w.dirty[:0]
	w.touched = w.touched[:0]
	w.pos = w.pos[:0]
}

// force overwrites the masked lanes of source gate g's planes with v and
// schedules its consumers.
//
//simlint:hotpath
func (w *worker) force(g netlist.GateID, v logic.V, m uint64) {
	n := &w.nodes[g]
	n.v1, n.v0 = forcePlanes(n.v1, n.v0, v, m)
	w.mark(g, n)
	w.schedFanouts(n)
}

// install writes the state differences into the given lane of their
// flip-flops and schedules the consumers of those it changes. A
// flip-flop-sited stuck fault's own difference changes nothing when the
// lane is already forced.
//
//simlint:hotpath
func (w *worker) install(diffs []ffDiff, lane uint) {
	bit := uint64(1) << lane
	for _, d := range diffs {
		ffg := w.p.c.DFFs[d.ff]
		n := &w.nodes[ffg]
		a1 := n.v1&^bit | oneBit[d.val]<<lane
		a0 := n.v0&^bit | zeroBit[d.val]<<lane
		if store(n, a1, a0) == 0 {
			continue
		}
		w.mark(ffg, n)
		w.schedFanouts(n)
	}
}

// schedule queues gate g for evaluation at its level.
//
//simlint:hotpath
func (w *worker) schedule(g netlist.GateID) {
	n := &w.nodes[g]
	if n.flags&flagSched != 0 {
		return
	}
	n.flags |= flagSched
	w.queue[n.level] = append(w.queue[n.level], g)
}

// schedFanouts queues the combinational consumers of n's gate.
//
//simlint:hotpath
func (w *worker) schedFanouts(n *node) {
	for _, fo := range w.p.fanouts[n.outOff:n.outEnd] {
		w.schedule(fo)
	}
}

// propagate drains the event queue in level order. A gate's consumers
// sit on higher levels, so a bucket never grows while it is drained and
// its length is the number of gates evaluated there.
//
// Every gate but the fault site and the flagLoop ones is evaluated
// right here, over its four fanin slots: BUF, NOT, AND, NAND, OR and
// NOR all run the AND form — a1 is the AND of the inputs' one-planes,
// a0 the OR of their zero-planes — with the planes swapped on the way
// in for OR and NOR (De Morgan) and on the way out for NOT, NAND and
// OR. Both swaps are masks derived from the opcode bits, not branches,
// and the four loads have no loop around them. Nor does an evaluation
// branch on whether the gate changed: the gates that did are packed, in
// order, into the front of the bucket they were drained from, and only
// once the whole bucket is evaluated are they marked and their fanouts
// queued. Nothing on the bucket's level reads them, so the lists end up
// exactly as if each gate had been handled as it was evaluated.
//
//simlint:hotpath
func (w *worker) propagate(site netlist.GateID, fs *faultState, off uint, mask uint64) {
	nodes := w.nodes
	evals := 0
	for l := int32(1); l <= w.p.maxLevel; l++ {
		bucket := w.queue[l]
		changed := 0
		for _, g := range bucket {
			n := &nodes[g]
			var d uint64
			switch {
			case g == site:
				d = w.evalSite(g, fs, off, mask)
			case n.flags&flagLoop != 0:
				d = w.eval(g)
			default:
				n.flags &^= flagSched
				code := n.code
				sx := -uint64(code >> 2)
				i0, i1, i2, i3 := &nodes[n.in[0]], &nodes[n.in[1]], &nodes[n.in[2]], &nodes[n.in[3]]
				t0 := (i0.v1 ^ i0.v0) & sx
				t1 := (i1.v1 ^ i1.v0) & sx
				t2 := (i2.v1 ^ i2.v0) & sx
				t3 := (i3.v1 ^ i3.v0) & sx
				a1 := (i0.v1 ^ t0) & (i1.v1 ^ t1) & (i2.v1 ^ t2) & (i3.v1 ^ t3)
				a0 := (i0.v0 ^ t0) | (i1.v0 ^ t1) | (i2.v0 ^ t2) | (i3.v0 ^ t3)
				t := (a1 ^ a0) & -uint64((code^code>>2)&1)
				d = store(n, a1^t, a0^t)
			}
			bucket[changed] = g
			changed += int((d | -d) >> 63)
		}
		for _, g := range bucket[:changed] {
			n := &nodes[g]
			w.mark(g, n)
			w.schedFanouts(n)
		}
		evals += len(bucket)
		w.queue[l] = bucket[:0]
	}
	w.evals += evals
}

// pass simulates fs's fault from cycle fs.cyc to the end of the loaded
// block — one cycle for a flip-flop D-pin transition fault — and leaves
// the nodes good again. It reports whether the fault was detected; if
// not, fs holds the cycle and the state differences the next pass starts
// from.
//
// One propagation computes every lane under the speculation that the
// flip-flop state after the entry lane is the good machine's. The cutoff
// commits the lanes up to the first one, L, where a flip-flop input
// diverges. The planes beyond L are what a propagation started at L+1
// would compute, except for the state differences entering L+1; so
// those are written into lane L+1 of the flip-flop nodes, only their
// events propagate, and cutoff, detection and carry run again from L+1.
// The fault site keeps the entry lane, mask and previous driver value it
// was injected with: the lanes already committed hold the faulty
// machine's true values, which is what a later lane's site looks back on.
//
//simlint:hotpath
func (w *worker) pass(fs *faultState) bool {
	p := w.p
	f, st := fs.f, fs.st
	off := uint(fs.cyc - w.base)
	wEnd := w.lastLn
	if st == siteDFFTrans {
		// The latched fault value recurs through the state register, so
		// this site kind advances one cycle per pass.
		wEnd = off
	}
	mask := maskRange(off, wEnd)
	w.passes++

	// The carried state differences enter at the first lane.
	w.install(fs.diffs, off)

	// Inject the fault. Flip-flop-sited stuck faults pin the state
	// line's planes exactly (no speculation), so the site register is
	// exempt from the divergence cutoff and carries its own next-state
	// difference explicitly.
	exempt := int32(-1)
	site := netlist.NoGate
	switch st {
	case sitePI:
		w.force(f.Gate, f.Kind.StuckValue(), mask)
	case siteDFFOut:
		w.force(f.Gate, f.Kind.StuckValue(), mask)
		exempt = p.dffIdx[f.Gate]
	case siteDFFD:
		// Lane off holds the carried (or good) state; the stuck D pin
		// fixes every later lane's latched value.
		if m2 := mask &^ (uint64(1) << off); m2 != 0 {
			w.force(f.Gate, f.Kind.StuckValue(), m2)
		}
		exempt = p.dffIdx[f.Gate]
	case siteDFFTrans:
		exempt = p.dffIdx[f.Gate]
	case siteComb, siteCombTrans:
		site = f.Gate
		w.schedule(site)
	}

	for cur := off; ; {
		w.propagate(site, fs, off, mask)

		// Divergence cutoff: the first lane where a flip-flop input
		// diverges invalidates the speculation from the next lane on. Lane
		// L itself executed with a correct entering state and stays valid.
		last := wEnd
		var div uint64
		for _, g := range w.touched {
			fed := p.fed(g)
			if exempt >= 0 && len(fed) == 1 && fed[0] == exempt {
				continue
			}
			n := &w.nodes[g]
			div |= (n.v1 ^ n.g1) | (n.v0 ^ n.g0)
		}
		if div &= maskRange(cur, wEnd); div != 0 {
			last = uint(bits.TrailingZeros64(div))
		}

		// Detection over the valid lanes, against the good planes: a hard
		// detect needs opposite binary planes; a potential detect is good
		// binary against faulty X. Only a written output can differ.
		valid := maskRange(cur, last)
		var det, pot uint64
		for _, po := range w.pos {
			n := &w.nodes[po]
			det |= n.g1&n.v0 | n.g0&n.v1
			pot |= (n.g1 | n.g0) &^ (n.v1 | n.v0)
		}
		det &= valid
		pot &= valid
		if det != 0 {
			dl := uint(bits.TrailingZeros64(det))
			// The serial oracle records a potential detect on the detecting
			// cycle itself, then stops simulating the fault.
			if pot&maskRange(cur, dl) != 0 {
				w.res.PotDetect(f.ID)
			}
			w.res.Detected[f.ID] = true
			w.res.DetectedAt[f.ID] = int32(w.base + int(dl))
			w.detected++
			w.undo()
			return true
		}
		if pot != 0 {
			w.res.PotDetect(f.ID)
		}

		// Carry the true state difference out of lane `last`. The carried
		// list was consumed above, so it is rebuilt in place.
		nd := fs.diffs[:0]
		for _, g := range w.touched {
			n := &w.nodes[g]
			if ((n.v1^n.g1)|(n.v0^n.g0))>>last&1 == 0 {
				continue
			}
			fv := planeVal(n.v1, n.v0, last)
			for _, ffi := range p.fed(g) {
				if ffi != exempt {
					nd = append(nd, ffDiff{ff: ffi, val: fv})
				}
			}
		}
		switch st {
		case siteDFFOut, siteDFFD:
			sv := f.Kind.StuckValue()
			dd := &w.nodes[p.dffD[exempt]]
			if sv != planeVal(dd.g1, dd.g0, last) {
				nd = append(nd, ffDiff{ff: exempt, val: sv})
			}
		case siteDFFTrans:
			dn := &w.nodes[fs.drv]
			raw := planeVal(dn.v1, dn.v0, last)
			if fv := faults.TransitionFV(f.Kind, fs.prevDrv, raw); fv != planeVal(dn.g1, dn.g0, last) {
				nd = append(nd, ffDiff{ff: exempt, val: fv})
			}
		}
		fs.diffs = nd
		if len(nd) > w.peakDiffs {
			w.peakDiffs = len(nd)
		}
		w.curDiffs = len(nd)

		if last == wEnd {
			break
		}
		cur = last + 1
		w.install(nd, cur)
		w.steps++
	}

	if fs.drv != netlist.NoGate {
		dn := &w.nodes[fs.drv]
		fs.prevDrv = planeVal(dn.v1, dn.v0, wEnd)
	}
	fs.cyc = w.base + int(wEnd) + 1
	w.undo()
	return false
}

// eval re-evaluates a flagLoop gate's planes from its fanin planes —
// propagate's AND form, or the XOR fold, over the circuit's fanin
// window — and stores them, returning what store returns.
//
//simlint:hotpath
func (w *worker) eval(g netlist.GateID) uint64 {
	n := &w.nodes[g]
	n.flags &^= flagSched
	ins := w.p.fanin(g)
	code := n.code
	var a1, a0, so uint64
	if code >= opXor {
		a1, a0 = 0, ^uint64(0)
		for _, in := range ins {
			i := &w.nodes[in]
			a1, a0 = a1&i.v0|a0&i.v1, a1&i.v1|a0&i.v0
		}
		so = -uint64(code & 1)
	} else {
		sx := -uint64(code >> 2)
		a1, a0 = ^uint64(0), 0
		for _, in := range ins {
			i := &w.nodes[in]
			t := (i.v1 ^ i.v0) & sx
			a1 &= i.v1 ^ t
			a0 |= i.v0 ^ t
		}
		so = -uint64((code ^ code>>2) & 1)
	}
	t := (a1 ^ a0) & so
	return store(n, a1^t, a0^t)
}

// sitePin returns the planes the fault site sees on the faulty input
// pin: the driver's planes with the fault's forcing applied in the
// pass's lanes.
//
//simlint:hotpath
func (w *worker) sitePin(fs *faultState, in netlist.GateID, off uint, mask uint64) (uint64, uint64) {
	i1, i0 := w.nodes[in].v1, w.nodes[in].v0
	if fs.st == siteComb {
		return forcePlanes(i1, i0, fs.f.Kind.StuckValue(), mask)
	}
	// Transition: the effective pin value is TransitionFV (ternary AND
	// for STR, OR for STF) of the driver's previous-cycle and current
	// values. The driver is strictly upstream in level order, so its
	// planes are final; shifting them by one lane yields previous-cycle
	// values, with the carried scalar spliced into the entry lane.
	bit := uint64(1) << off
	p1 := i1<<1&^bit | oneBit[fs.prevDrv]<<off
	p0 := i0<<1&^bit | zeroBit[fs.prevDrv]<<off
	var e1, e0 uint64
	if fs.f.Kind == faults.STR {
		e1, e0 = p1&i1, p0|i0
	} else {
		e1, e0 = p1|i1, p0&i0
	}
	return i1&^mask | e1&mask, i0&^mask | e0&mask
}

// evalSite is eval for the gate a combinational fault sits on: the
// faulty input pin, or the output, is forced in the pass's lanes.
//
//simlint:hotpath
func (w *worker) evalSite(g netlist.GateID, fs *faultState, off uint, mask uint64) uint64 {
	n := &w.nodes[g]
	n.flags &^= flagSched
	ins := w.p.fanin(g)
	pin := int(fs.f.Pin)
	code := n.code
	var a1, a0, so uint64
	if code >= opXor {
		a1, a0 = 0, ^uint64(0)
		for j, in := range ins {
			i1, i0 := w.nodes[in].v1, w.nodes[in].v0
			if j == pin {
				i1, i0 = w.sitePin(fs, in, off, mask)
			}
			a1, a0 = a1&i0|a0&i1, a1&i1|a0&i0
		}
		so = -uint64(code & 1)
	} else {
		sx := -uint64(code >> 2)
		a1, a0 = ^uint64(0), 0
		for j, in := range ins {
			i1, i0 := w.nodes[in].v1, w.nodes[in].v0
			if j == pin {
				i1, i0 = w.sitePin(fs, in, off, mask)
			}
			t := (i1 ^ i0) & sx
			a1 &= i1 ^ t
			a0 |= i0 ^ t
		}
		so = -uint64((code ^ code>>2) & 1)
	}
	t := (a1 ^ a0) & so
	a1, a0 = a1^t, a0^t
	if fs.st == siteComb && pin == faults.OutPin {
		a1, a0 = forcePlanes(a1, a0, fs.f.Kind.StuckValue(), mask)
	}
	return store(n, a1, a0)
}
