package logic

import (
	"testing"
)

func TestVString(t *testing.T) {
	cases := []struct {
		v    V
		want string
	}{{Zero, "0"}, {One, "1"}, {X, "X"}, {V(3), "X"}}
	for _, c := range cases {
		if got := c.v.String(); got != c.want {
			t.Errorf("V(%d).String() = %q, want %q", c.v, got, c.want)
		}
	}
}

func TestParseV(t *testing.T) {
	for _, c := range []struct {
		in   byte
		want V
	}{{'0', Zero}, {'1', One}, {'x', X}, {'X', X}} {
		got, err := ParseV(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseV(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseV('z'); err == nil {
		t.Error("ParseV('z') succeeded, want error")
	}
}

func TestNot(t *testing.T) {
	if Zero.Not() != One || One.Not() != Zero || X.Not() != X {
		t.Errorf("Not truth table wrong: %v %v %v", Zero.Not(), One.Not(), X.Not())
	}
}

func TestTwoInputTables(t *testing.T) {
	type row struct{ a, b, and, or, xor V }
	rows := []row{
		{Zero, Zero, Zero, Zero, Zero},
		{Zero, One, Zero, One, One},
		{One, Zero, Zero, One, One},
		{One, One, One, One, Zero},
		{Zero, X, Zero, X, X},
		{X, Zero, Zero, X, X},
		{One, X, X, One, X},
		{X, One, X, One, X},
		{X, X, X, X, X},
	}
	for _, r := range rows {
		if got := And2(r.a, r.b); got != r.and {
			t.Errorf("And2(%v,%v) = %v, want %v", r.a, r.b, got, r.and)
		}
		if got := Or2(r.a, r.b); got != r.or {
			t.Errorf("Or2(%v,%v) = %v, want %v", r.a, r.b, got, r.or)
		}
		if got := Xor2(r.a, r.b); got != r.xor {
			t.Errorf("Xor2(%v,%v) = %v, want %v", r.a, r.b, got, r.xor)
		}
	}
}

func vals() []V { return []V{Zero, One, X} }

func TestCommutativity(t *testing.T) {
	for _, a := range vals() {
		for _, b := range vals() {
			if And2(a, b) != And2(b, a) {
				t.Errorf("And2 not commutative at %v,%v", a, b)
			}
			if Or2(a, b) != Or2(b, a) {
				t.Errorf("Or2 not commutative at %v,%v", a, b)
			}
			if Xor2(a, b) != Xor2(b, a) {
				t.Errorf("Xor2 not commutative at %v,%v", a, b)
			}
		}
	}
}

func TestDeMorgan(t *testing.T) {
	for _, a := range vals() {
		for _, b := range vals() {
			if And2(a, b).Not() != Or2(a.Not(), b.Not()) {
				t.Errorf("De Morgan (AND) fails at %v,%v", a, b)
			}
			if Or2(a, b).Not() != And2(a.Not(), b.Not()) {
				t.Errorf("De Morgan (OR) fails at %v,%v", a, b)
			}
		}
	}
}

// TestXMonotone: replacing an X input by a binary value must never change a
// binary output (X-pessimism is sound).
func TestXMonotone(t *testing.T) {
	ops := []Op{OpAnd, OpNand, OpOr, OpNor, OpXor, OpXnor}
	for _, op := range ops {
		for _, a := range vals() {
			out := Eval(op, []V{a, X})
			if !out.Binary() {
				continue
			}
			for _, b := range []V{Zero, One} {
				if got := Eval(op, []V{a, b}); got != out {
					t.Errorf("%v(%v,X)=%v but %v(%v,%v)=%v", op, a, out, op, a, b, got)
				}
			}
		}
	}
}

func TestEvalNary(t *testing.T) {
	cases := []struct {
		op   Op
		in   []V
		want V
	}{
		{OpAnd, []V{One, One, One}, One},
		{OpAnd, []V{One, Zero, X}, Zero},
		{OpNand, []V{One, One, One}, Zero},
		{OpNand, []V{Zero, X, X}, One},
		{OpOr, []V{Zero, Zero, One}, One},
		{OpNor, []V{Zero, Zero, Zero}, One},
		{OpXor, []V{One, One, One}, One},
		{OpXor, []V{One, One, Zero}, Zero},
		{OpXnor, []V{One, Zero}, Zero},
		{OpNot, []V{Zero}, One},
		{OpBuf, []V{X}, X},
		{OpAnd, []V{X, X}, X},
		{OpOr, []V{X, One, X}, One},
	}
	for _, c := range cases {
		if got := Eval(c.op, c.in); got != c.want {
			t.Errorf("Eval(%v, %v) = %v, want %v", c.op, c.in, got, c.want)
		}
	}
}

func TestParseOp(t *testing.T) {
	for _, c := range []struct {
		s    string
		want Op
	}{
		{"AND", OpAnd}, {"nand", OpNand}, {"Or", OpOr}, {"NOR", OpNor},
		{"XOR", OpXor}, {"XNOR", OpXnor}, {"NOT", OpNot}, {"INV", OpNot},
		{"BUF", OpBuf}, {"BUFF", OpBuf}, {"DFF", OpDFF},
	} {
		got, err := ParseOp(c.s)
		if err != nil || got != c.want {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", c.s, got, err, c.want)
		}
	}
	if _, err := ParseOp("MUX"); err == nil {
		t.Error("ParseOp(MUX) succeeded, want error")
	}
}

func TestOpRoundTrip(t *testing.T) {
	for op := OpAnd; op <= OpBuf; op++ {
		got, err := ParseOp(op.String())
		if err != nil || got != op {
			t.Errorf("ParseOp(%q) = %v, %v; want %v", op.String(), got, err, op)
		}
	}
}

func TestControlling(t *testing.T) {
	if c, ok := OpAnd.Controlling(); !ok || c != Zero {
		t.Errorf("AND controlling = %v,%v", c, ok)
	}
	if c, ok := OpNor.Controlling(); !ok || c != One {
		t.Errorf("NOR controlling = %v,%v", c, ok)
	}
	if _, ok := OpXor.Controlling(); ok {
		t.Error("XOR should have no controlling value")
	}
}

func TestWordPackUnpack(t *testing.T) {
	in := []V{One, Zero, X, One}
	w := PackWord(in, X)
	if w.Out() != X {
		t.Errorf("Out = %v, want X", w.Out())
	}
	for i, v := range in {
		if w.In(i) != v {
			t.Errorf("In(%d) = %v, want %v", i, w.In(i), v)
		}
	}
}

func TestWordWith(t *testing.T) {
	w := PackWord([]V{Zero, One}, X)
	if w.InputBits().Out() != Zero {
		t.Error("InputBits should zero the output field")
	}
	if w.InputBits().In(1) != One {
		t.Error("InputBits should preserve inputs")
	}
}

func TestPackWordPanicsOnTooManyPins(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PackWord with too many pins did not panic")
		}
	}()
	PackWord(make([]V, MaxPins+1), Zero)
}

func TestInvalidEncodingActsAsX(t *testing.T) {
	// Craft a word whose pin 0 carries the invalid 0b11 encoding.
	w := Word(0b11 << 2)
	if got := Eval(OpBuf, []V{w.In(0)}); got != X {
		t.Errorf("BUFF(invalid) = %v, want X", got)
	}
	if got := Eval(OpAnd, []V{w.In(0)}); got != X {
		t.Errorf("AND(invalid) = %v, want X", got)
	}
}
