package logic

import "fmt"

// MaxPins is the maximum number of input pins representable in a packed
// gate-state Word. netlist.Builder rejects a wider gate.
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
