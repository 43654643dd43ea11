// Package logic provides the ternary (0/1/X) logic system used throughout
// the fault simulators: values, two-bit packed encodings, gate-evaluation
// lookup tables, and packed gate-state words.
//
// The paper evaluates gates by table lookup on a state word that packs all
// input values and the output value of a gate ("the state of a gate is
// packed into a word so that the output can be efficiently evaluated by
// table look up", §2). This package is the Go rendering of that machinery.
package logic

import "fmt"

// V is a ternary logic value. The zero value is logic 0.
//
// Values are encoded in two bits so that gate states pack into words:
// 0 = 0b00, 1 = 0b01, X = 0b10. The encoding 0b11 is invalid and is
// normalized to X wherever it could be observed.
type V uint8

// The three logic values.
const (
	Zero V = 0 // logic 0
	One  V = 1 // logic 1
	X    V = 2 // unknown
)

// VBits is the number of bits a value occupies in packed encodings.
const VBits = 2

// VMask masks a single packed value.
const VMask = 0b11

// Norm maps the unused encoding 0b11 (and anything larger) to X.
func (v V) Norm() V {
	if v > X {
		return X
	}
	return v
}

// Binary reports whether v is 0 or 1.
func (v V) Binary() bool { return v <= One }

// Not returns the ternary complement of v.
func (v V) Not() V { return notTab[v.Norm()] }

var notTab = [3]V{One, Zero, X}

// String returns "0", "1" or "X".
func (v V) String() string {
	switch v.Norm() {
	case Zero:
		return "0"
	case One:
		return "1"
	default:
		return "X"
	}
}

// ParseV parses one of the characters 0, 1, x, X into a value.
func ParseV(c byte) (V, error) {
	switch c {
	case '0':
		return Zero, nil
	case '1':
		return One, nil
	case 'x', 'X':
		return X, nil
	}
	return X, fmt.Errorf("logic: invalid value character %q", c)
}

// Op identifies a primitive gate function.
type Op uint8

// Primitive gate operations. Input, Output and DFF appear in netlists but
// are not combinational functions; their evaluation is identity on input 0.
const (
	OpAnd Op = iota
	OpNand
	OpOr
	OpNor
	OpXor
	OpXnor
	OpNot
	OpBuf
	OpInput  // primary input: value assigned externally
	OpOutput // primary output marker: buffer semantics
	OpDFF    // D flip-flop: value assigned at clock edges
	numOps
)

var opNames = [numOps]string{
	"AND", "NAND", "OR", "NOR", "XOR", "XNOR", "NOT", "BUFF",
	"INPUT", "OUTPUT", "DFF",
}

// String returns the ISCAS-89 style keyword for the operation.
func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("Op(%d)", int(op))
}

// ParseOp maps an ISCAS-89 gate keyword (case-insensitive) to an Op.
func ParseOp(s string) (Op, error) {
	switch up(s) {
	case "AND":
		return OpAnd, nil
	case "NAND":
		return OpNand, nil
	case "OR":
		return OpOr, nil
	case "NOR":
		return OpNor, nil
	case "XOR":
		return OpXor, nil
	case "XNOR":
		return OpXnor, nil
	case "NOT", "INV":
		return OpNot, nil
	case "BUF", "BUFF":
		return OpBuf, nil
	case "DFF":
		return OpDFF, nil
	}
	return 0, fmt.Errorf("logic: unknown gate type %q", s)
}

func up(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - 'a' + 'A'
		}
	}
	return string(b)
}

// Inverting reports whether the operation complements its base function
// (NAND, NOR, XNOR, NOT).
func (op Op) Inverting() bool {
	switch op {
	case OpNand, OpNor, OpXnor, OpNot:
		return true
	}
	return false
}

// Base returns the non-inverting counterpart of op (NAND→AND, NOT→BUFF, …).
func (op Op) Base() Op {
	switch op {
	case OpNand:
		return OpAnd
	case OpNor:
		return OpOr
	case OpXnor:
		return OpXor
	case OpNot:
		return OpBuf
	}
	return op
}

// Controlling returns the controlling input value of op and whether one
// exists (AND/NAND: 0, OR/NOR: 1; XOR-family and buffers have none).
func (op Op) Controlling() (V, bool) {
	switch op {
	case OpAnd, OpNand:
		return Zero, true
	case OpOr, OpNor:
		return One, true
	}
	return X, false
}

// pair2 indexes a two-input lookup table: a in bits 2-3, b in bits 0-1.
func pair2(a, b V) int { return int(a)<<VBits | int(b) }

// tab2 holds one 16-entry two-input evaluation table per base operation.
// Invalid encodings (0b11 operands) evaluate as X.
type tab2 [16]V

func buildTab2(f func(a, b V) V) tab2 {
	var t tab2
	for i := range t {
		a := V(i >> VBits).Norm()
		b := V(i & VMask).Norm()
		t[i] = f(a, b)
	}
	return t
}

func and2(a, b V) V {
	switch {
	case a == Zero || b == Zero:
		return Zero
	case a == One && b == One:
		return One
	}
	return X
}

func or2(a, b V) V {
	switch {
	case a == One || b == One:
		return One
	case a == Zero && b == Zero:
		return Zero
	}
	return X
}

func xor2(a, b V) V {
	if a == X || b == X {
		return X
	}
	return a ^ b
}

var (
	andTab = buildTab2(and2)
	orTab  = buildTab2(or2)
	xorTab = buildTab2(xor2)
)

// And2, Or2, Xor2 evaluate the two-input primitives by table lookup.
func And2(a, b V) V { return andTab[pair2(a, b)] }

// Or2 evaluates two-input OR with ternary semantics.
func Or2(a, b V) V { return orTab[pair2(a, b)] }

// Xor2 evaluates two-input XOR with ternary semantics.
func Xor2(a, b V) V { return xorTab[pair2(a, b)] }

// Eval evaluates a gate of operation op over the given inputs.
// INPUT and DFF gates evaluate to their first input if present (useful for
// clocking), otherwise X. It panics if a non-unary op receives no inputs.
func Eval(op Op, in []V) V {
	switch op {
	case OpNot:
		return in[0].Not()
	case OpBuf, OpOutput, OpDFF:
		return in[0].Norm()
	case OpInput:
		if len(in) == 0 {
			return X
		}
		return in[0].Norm()
	}
	var acc V
	var tab *tab2
	switch op.Base() {
	case OpAnd:
		acc, tab = One, &andTab
	case OpOr:
		acc, tab = Zero, &orTab
	case OpXor:
		acc, tab = Zero, &xorTab
	default:
		panic(fmt.Sprintf("logic: Eval on %v", op))
	}
	for _, v := range in {
		acc = tab[pair2(acc, v)]
		// Short-circuit on controlling values for the monotone ops.
		if op.Base() != OpXor {
			if c, ok := op.Controlling(); ok && acc == c {
				break
			}
		}
	}
	if op.Inverting() {
		acc = acc.Not()
	}
	return acc
}
