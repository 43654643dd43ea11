// Package vectors holds test-vector sets: ordered sequences of primary
// input assignments applied one per clock cycle to a synchronous circuit.
package vectors

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Set is an ordered test sequence for a specific circuit's PIs: Vecs[t][i]
// is the value applied to the circuit's i-th primary input at cycle t.
type Set struct {
	NumPIs int
	Vecs   [][]logic.V
}

// Len returns the number of vectors.
func (s *Set) Len() int { return len(s.Vecs) }

// Append adds a vector, which must have NumPIs entries.
func (s *Set) Append(v []logic.V) {
	if len(v) != s.NumPIs {
		panic(fmt.Sprintf("vectors: vector width %d, want %d", len(v), s.NumPIs))
	}
	s.Vecs = append(s.Vecs, v)
}

// New returns an empty set for a circuit with numPIs primary inputs.
func New(numPIs int) *Set { return &Set{NumPIs: numPIs} }

// rngs holds idle generators for Random: a math/rand source is 4.9 KB,
// and re-seeding one yields the stream a fresh source over the same seed
// does.
var rngs = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// Random generates n uniformly random binary vectors for circuit c using a
// deterministic seed. The vectors share one backing array, each capped at
// its own width, so appending to one cannot overwrite the next.
func Random(c *netlist.Circuit, n int, seed int64) *Set {
	s := New(len(c.PIs))
	if n <= 0 {
		return s
	}
	rng := rngs.Get().(*rand.Rand)
	defer rngs.Put(rng)
	rng.Seed(seed)
	w := s.NumPIs
	buf := make([]logic.V, n*w)
	for i := range buf {
		buf[i] = logic.V(rng.Intn(2))
	}
	s.Vecs = make([][]logic.V, n)
	for t := range s.Vecs {
		s.Vecs[t] = buf[t*w : (t+1)*w : (t+1)*w]
	}
	return s
}

// Parse reads a vector file: one vector per line, characters 0/1/X, one
// column per primary input; '#' starts a comment; blank lines ignored.
func Parse(r io.Reader, numPIs int) (*Set, error) {
	s := New(numPIs)
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if i := strings.IndexByte(text, '#'); i >= 0 {
			text = text[:i]
		}
		text = strings.TrimSpace(text)
		if text == "" {
			continue
		}
		if len(text) != numPIs {
			return nil, fmt.Errorf("vectors: line %d has %d columns, want %d", line, len(text), numPIs)
		}
		v := make([]logic.V, numPIs)
		for i := 0; i < numPIs; i++ {
			val, err := logic.ParseV(text[i])
			if err != nil {
				return nil, fmt.Errorf("vectors: line %d: %w", line, err)
			}
			v[i] = val
		}
		s.Vecs = append(s.Vecs, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return s, nil
}

// ParseString parses vector text from a string.
func ParseString(text string, numPIs int) (*Set, error) {
	return Parse(strings.NewReader(text), numPIs)
}

// Write serializes the set in the format Parse reads.
func Write(w io.Writer, s *Set) error {
	bw := bufio.NewWriter(w)
	for _, v := range s.Vecs {
		for _, x := range v {
			bw.WriteString(x.String())
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}

// String renders the set as vector text.
func (s *Set) String() string {
	var sb strings.Builder
	if err := Write(&sb, s); err != nil {
		panic(err)
	}
	return sb.String()
}
