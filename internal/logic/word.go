package logic

import (
	"fmt"
	"strings"
)

// MaxPins is the maximum number of input pins representable in a packed
// gate-state Word. Netlists are decomposed so every gate fits.
const MaxPins = 30

// Word packs the complete state of one gate — every input pin value and
// the output value, two bits each — into a single machine word, as the
// paper's concurrent simulator does for fast comparison and table-lookup
// evaluation. The output occupies bits 0-1; input pin i occupies bits
// 2+2i .. 3+2i.
type Word uint64

// outShift is the bit offset of the output field.
const outShift = 0

func inShift(pin int) uint { return uint(VBits + pin*VBits) }

// Out extracts the output value.
func (w Word) Out() V { return V(w>>outShift) & VMask }

// In extracts input pin i's value.
func (w Word) In(pin int) V { return V(w>>inShift(pin)) & VMask }

// WithOut returns w with the output field replaced by v.
func (w Word) WithOut(v V) Word {
	return (w &^ (VMask << outShift)) | Word(v)<<outShift
}

// WithIn returns w with input pin i replaced by v.
func (w Word) WithIn(pin int, v V) Word {
	s := inShift(pin)
	return (w &^ (VMask << s)) | Word(v)<<s
}

// InputBits returns only the input-pin fields of w (output field zeroed),
// for comparing faulty inputs against good inputs.
func (w Word) InputBits() Word { return w &^ (VMask << outShift) }

// PackWord builds a Word from input values and an output value.
// It panics if len(in) exceeds MaxPins.
func PackWord(in []V, out V) Word {
	if len(in) > MaxPins {
		panic(fmt.Sprintf("logic: %d pins exceed MaxPins", len(in)))
	}
	w := Word(out.Norm())
	for i, v := range in {
		w |= Word(v.Norm()) << inShift(i)
	}
	return w
}

// Inputs unpacks the first n input pins of w.
func (w Word) Inputs(n int) []V {
	in := make([]V, n)
	for i := range in {
		in[i] = w.In(i).Norm()
	}
	return in
}

// EvalWordOut evaluates op over the first n input pins of w.
func EvalWordOut(op Op, n int, w Word) V {
	switch op {
	case OpNot:
		return w.In(0).Not()
	case OpBuf, OpOutput, OpDFF, OpInput:
		return w.In(0).Norm()
	}
	var acc V
	var tab *tab2
	invert := op.Inverting()
	switch op.Base() {
	case OpAnd:
		acc, tab = One, &andTab
	case OpOr:
		acc, tab = Zero, &orTab
	case OpXor:
		acc, tab = Zero, &xorTab
	default:
		panic(fmt.Sprintf("logic: EvalWordOut on %v", op))
	}
	bits := uint64(w) >> VBits
	for i := 0; i < n; i++ {
		acc = tab[int(acc)<<VBits|int(bits&VMask)]
		bits >>= VBits
	}
	if invert {
		acc = acc.Not()
	}
	return acc
}

// String renders the word as "in0,in1,...->out" over n pins; with n
// unknown callers should use Format.
func (w Word) Format(n int) string {
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(w.In(i).String())
	}
	b.WriteString("->")
	b.WriteString(w.Out().String())
	return b.String()
}
