package compiled

import (
	"context"

	"repro/internal/logic"
	"repro/internal/vectors"
)

// wordW is the pass width: one uint64 bit-plane lane per cycle.
const wordW = 64

// oneBit and zeroBit map a normalized ternary value to its bit-plane
// contribution: lane bit set in v1 for One, in v0 for Zero, in neither
// for X. Indexing with a normalized V is branch-free.
var (
	oneBit  = [3]uint64{0, 1, 0}
	zeroBit = [3]uint64{1, 0, 0}
)

// planeVal decodes one lane of a (v1, v0) bit-plane pair.
func planeVal(v1, v0 uint64, lane uint) logic.V {
	if v1>>lane&1 != 0 {
		return logic.One
	}
	if v0>>lane&1 != 0 {
		return logic.Zero
	}
	return logic.X
}

// maskRange returns the lane mask with bits [lo, hi] set (inclusive);
// lo <= hi <= 63.
func maskRange(lo, hi uint) uint64 {
	return (^uint64(0) << lo) & (^uint64(0) >> (63 - hi))
}

// Trace is the packed good-machine waveform: for every gate (sources
// included) and every cycle, the settled ternary value before the
// clock edge, stored as two uint64 bit-planes per gate per 64-cycle
// block. It is the fault simulator's shared baseline — the compiled
// analogue of stepping a goodsim.Sim — and is immutable once Trace returns.
//
//simlint:immutable
type Trace struct {
	ng     int
	cycles int
	blocks int
	v1, v0 []uint64 // blocks × ng, block-major: index b*ng + gate
}

// Bytes returns the trace's packed storage size.
func (tr *Trace) Bytes() int64 { return int64(len(tr.v1)+len(tr.v0)) * 8 }

// block returns the bit-plane slices of 64-cycle block b, indexed by
// gate.
func (tr *Trace) block(b int) (v1, v0 []uint64) {
	lo, hi := b*tr.ng, (b+1)*tr.ng
	return tr.v1[lo:hi], tr.v0[lo:hi]
}

// Trace runs the compiled good machine over the whole vector sequence
// from the all-X state and returns the packed waveform plus the number
// of gate evaluations performed. The machine itself is cycle-serial —
// the next-state recurrence of a sequential circuit forbids evaluating
// 64 cycles at once — but each cycle's settled values are deposited as
// one bit-column, so the fault passes downstream consume the result 64
// cycles at a time.
func (p *Program) Trace(vs *vectors.Set) (*Trace, int64) {
	tr, evals, _ := p.trace(context.Background(), vs)
	return tr, evals
}

// trace is Trace under a context, checked once per 64-cycle block: a
// cancelled run returns ctx.Err() and no trace.
func (p *Program) trace(ctx context.Context, vs *vectors.Set) (*Trace, int64, error) {
	nc := vs.Len()
	ng := len(p.c.Gates)
	blocks := (nc + wordW - 1) / wordW
	tr := &Trace{
		ng:     ng,
		cycles: nc,
		blocks: blocks,
		v1:     make([]uint64, blocks*ng),
		v0:     make([]uint64, blocks*ng),
	}
	val := make([]logic.V, ng)
	for i := range val {
		val[i] = logic.X
	}
	next := make([]logic.V, len(p.c.DFFs))
	evals := int64(0)
	for t := 0; t < nc; t++ {
		if t%wordW == 0 {
			if err := ctx.Err(); err != nil {
				return nil, 0, err
			}
		}
		for i, pi := range p.c.PIs {
			val[pi] = vs.Vecs[t][i].Norm()
		}
		p.evalScalar(val)
		evals += p.nEval
		base := (t / wordW) * ng
		lane := uint(t % wordW)
		for g := 0; g < ng; g++ {
			v := val[g]
			tr.v1[base+g] |= oneBit[v] << lane
			tr.v0[base+g] |= zeroBit[v] << lane
		}
		// Sample all D inputs before latching so FF-to-FF chains clock
		// simultaneously, exactly like goodsim.Clock.
		for i := range p.c.DFFs {
			next[i] = val[p.dffD[i]]
		}
		for i, ff := range p.c.DFFs {
			val[ff] = next[i]
		}
	}
	return tr, evals, nil
}
