package vectors

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/logic"
	"repro/internal/netlist"
)

func twoPI(t *testing.T) *netlist.Circuit {
	t.Helper()
	c, err := netlist.ParseBenchString("two", "INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b)\n")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestParseBasic(t *testing.T) {
	s, err := ParseString("01\n1X\n # comment line\n\nX0 # trailing\n", 2)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 3 {
		t.Fatalf("parsed %d vectors, want 3", s.Len())
	}
	want := [][]logic.V{
		{logic.Zero, logic.One},
		{logic.One, logic.X},
		{logic.X, logic.Zero},
	}
	for i, w := range want {
		for j := range w {
			if s.Vecs[i][j] != w[j] {
				t.Errorf("vec %d col %d = %v, want %v", i, j, s.Vecs[i][j], w[j])
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := ParseString("011\n", 2); err == nil {
		t.Error("wrong width accepted")
	}
	if _, err := ParseString("0Z\n", 2); err == nil {
		t.Error("invalid character accepted")
	}
}

func TestRoundTrip(t *testing.T) {
	c := twoPI(t)
	s := Random(c, 50, 9)
	s2, err := ParseString(s.String(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.String() != s.String() {
		t.Error("round trip changed vectors")
	}
}

func TestRandomDeterministicAndBinary(t *testing.T) {
	c := twoPI(t)
	a := Random(c, 100, 5)
	b := Random(c, 100, 5)
	if a.String() != b.String() {
		t.Error("same seed, different vectors")
	}
	d := Random(c, 100, 6)
	if a.String() == d.String() {
		t.Error("different seeds, same vectors")
	}
	for _, v := range a.Vecs {
		for _, x := range v {
			if !x.Binary() {
				t.Fatal("Random emitted a non-binary value")
			}
		}
	}
}

// widePI is a circuit of pis primary inputs, each its own output.
func widePI(t *testing.T, pis int) *netlist.Circuit {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < pis; i++ {
		fmt.Fprintf(&sb, "INPUT(i%d)\nOUTPUT(i%d)\n", i, i)
	}
	c, err := netlist.ParseBenchString(fmt.Sprintf("wide%d", pis), sb.String())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRandomMatchesPerVectorDraw holds Random to the construction it
// replaced — a fresh source per call and a slice per vector — element for
// element, and checks that appending to one vector leaves the next alone.
func TestRandomMatchesPerVectorDraw(t *testing.T) {
	for _, pis := range []int{1, 2, 35} {
		c := widePI(t, pis)
		for _, n := range []int{0, 1, 64, 65} {
			for _, seed := range []int64{1, 7} {
				rng := rand.New(rand.NewSource(seed))
				want := New(pis)
				for v := 0; v < n; v++ {
					vec := make([]logic.V, pis)
					for i := range vec {
						vec[i] = logic.V(rng.Intn(2))
					}
					want.Vecs = append(want.Vecs, vec)
				}
				got := Random(c, n, seed)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%d PIs, %d vectors, seed %d: got %v, want %v", pis, n, seed, got.Vecs, want.Vecs)
				}
				if n < 2 {
					continue
				}
				next := append([]logic.V(nil), got.Vecs[1]...)
				_ = append(got.Vecs[0], logic.X)
				if !reflect.DeepEqual(got.Vecs[1], next) {
					t.Fatalf("%d PIs: appending to vector 0 changed vector 1 to %v", pis, got.Vecs[1])
				}
			}
		}
	}
}

func TestAppendPanicsOnWidth(t *testing.T) {
	s := New(3)
	defer func() {
		if recover() == nil {
			t.Error("width mismatch did not panic")
		}
	}()
	s.Append([]logic.V{logic.One})
}

func TestSlice(t *testing.T) {
	c := twoPI(t)
	s := Random(c, 10, 1)
	if got := s.Slice(4).Len(); got != 4 {
		t.Errorf("Slice(4).Len() = %d", got)
	}
	if got := s.Slice(99).Len(); got != 10 {
		t.Errorf("Slice(99).Len() = %d", got)
	}
}

// Property: any parsed set serializes to text that reparses identically.
func TestParseWriteProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		width := int(raw[0]%5) + 1
		var sb strings.Builder
		for i := 1; i+width <= len(raw); i += width {
			for j := 0; j < width; j++ {
				sb.WriteByte("01X"[raw[i+j]%3])
			}
			sb.WriteByte('\n')
		}
		s, err := ParseString(sb.String(), width)
		if err != nil {
			return false
		}
		s2, err := ParseString(s.String(), width)
		if err != nil {
			return false
		}
		return s.String() == s2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
