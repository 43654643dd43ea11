// Package hotpath seeds violations of the hotpathalloc analyzer.
package hotpath

import (
	"fmt"

	"repro/internal/obs"
)

type sim struct {
	reg   *obs.Registry
	buf   []int
	byID  map[int]int
	evals int
}

//simlint:hotpath
func (s *sim) cycle(reg *obs.Registry) {
	s.buf = make([]int, 4) // want `make allocates`
	p := new(sim)          // want `new allocates`
	_ = p
	q := &sim{} // want `address of composite literal`
	_ = q
	m := map[int]int{} // want `map literal`
	_ = m
	sl := []int{1} // want `slice literal`
	_ = sl
	f := func() {} // want `function literal`
	f()
	go helper()                // want `go statement`
	defer helper()             // want `defer`
	fmt.Println("x")           // want `fmt\.Println`
	reg.Counter("evals").Inc() // want `observability call obs\.Counter` `observability call obs\.Inc`
	b := []byte("hi")          // want `conversion`
	_ = string(b)              // want `conversion`
	for _, v := range s.byID { // want `map iteration`
		s.evals += v
	}
	for i := range [4]int{} { // arrays are ordered: fine
		s.evals += i
	}

	s.evals++ // plain counters are the sanctioned pattern
}

// cycleClean stays on the hot path legally: dense-slice walks, plain
// counters, appends into preallocated buffers.
//
//simlint:hotpath
func (s *sim) cycleClean() {
	for i := range s.buf {
		s.buf[i] = i
	}
	s.buf = append(s.buf[:0], 1, 2)
	s.evals++
}

// unmarked functions may allocate freely.
func unmarked() []int { return make([]int, 8) }

func helper() {}
