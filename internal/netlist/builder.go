package netlist

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/logic"
)

// Builder assembles a Circuit incrementally by signal name. Signals may be
// referenced before they are defined; Build resolves everything, validates
// arities, detects combinational cycles and levelizes. The name map is
// the Builder's own: the Circuit it builds keeps the names, not the map.
type Builder struct {
	name  string
	gates []protoGate
	// args holds every gate's fanin names back to back; gate i's are
	// args[gates[i].args:gates[i+1].args].
	args    []string
	byName  map[string]GateID
	outputs []string
	errs    []error
}

type protoGate struct {
	name string
	op   logic.Op
	args int32 // offset of the gate's first fanin name in Builder.args
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder { return newBuilder(name, 0) }

// newBuilder sizes the builder for about n gates.
func newBuilder(name string, n int) *Builder {
	return &Builder{
		name:   name,
		gates:  make([]protoGate, 0, n),
		args:   make([]string, 0, 2*n),
		byName: make(map[string]GateID, n),
	}
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

func (b *Builder) define(name string, op logic.Op, fanin []string) {
	if name == "" {
		b.errf("netlist: empty signal name")
		return
	}
	if _, dup := b.byName[name]; dup {
		b.errf("netlist: signal %q defined twice", name)
		return
	}
	b.byName[name] = GateID(len(b.gates))
	b.gates = append(b.gates, protoGate{name: name, op: op, args: int32(len(b.args))})
	b.args = append(b.args, fanin...)
}

// Input declares a primary input signal.
func (b *Builder) Input(name string) *Builder {
	b.define(name, logic.OpInput, nil)
	return b
}

// Output marks an existing or future signal as a primary output.
func (b *Builder) Output(name string) *Builder {
	b.outputs = append(b.outputs, name)
	return b
}

// Gate defines a combinational gate driving signal name.
func (b *Builder) Gate(name string, op logic.Op, fanin ...string) *Builder {
	b.define(name, op, fanin)
	return b
}

// DFF defines a D flip-flop whose output drives signal name and whose D
// input is the signal d.
func (b *Builder) DFF(name, d string) *Builder {
	b.define(name, logic.OpDFF, []string{d})
	return b
}

// ArityOK reports whether op accepts n fanins. Exposed for the netcheck
// verifier, which re-validates circuits that bypassed the Builder.
func ArityOK(op logic.Op, n int) bool {
	switch op {
	case logic.OpInput:
		return n == 0
	case logic.OpNot, logic.OpBuf, logic.OpDFF:
		return n == 1
	case logic.OpXor, logic.OpXnor:
		return n >= 2
	default:
		return n >= 1
	}
}

// Build resolves the netlist into a levelized Circuit. Rather than
// stopping at the first defect it validates the whole netlist and returns
// every problem found, joined, so a malformed .bench file surfaces all of
// its undefined-fanin and duplicate-definition sites in one pass.
//
// Every fanin name is looked up once, into the circuit's Fanins at the
// position it holds in the Builder's args, so FaninOff is the args
// offsets; Fanouts, of the same length, is filled from Fanins. The gate
// names are copied into one string the Name fields are cut from, so the
// circuit holds on to no text it was parsed from.
func (b *Builder) Build() (*Circuit, error) {
	errs := append([]error(nil), b.errs...)
	n := len(b.gates)
	c := &Circuit{
		Name:      b.name,
		Gates:     make([]Gate, n),
		FaninOff:  make([]int32, n+1),
		Fanins:    make([]GateID, len(b.args)),
		FanoutOff: make([]int32, n+1), // [g+1]: fanout count of g, then its end offset
	}
	names := b.nameArena()
	for i := range b.gates {
		c.FaninOff[i] = b.gates[i].args
	}
	c.FaninOff[n] = int32(len(b.args))
	for i := range b.gates {
		p := &b.gates[i]
		args := b.args[p.args:c.FaninOff[i+1]]
		if !ArityOK(p.op, len(args)) {
			errs = append(errs, fmt.Errorf("netlist: gate %q (%v) has %d inputs", p.name, p.op, len(args)))
		}
		if len(args) > logic.MaxPins {
			errs = append(errs, fmt.Errorf("netlist: gate %q has %d inputs; a gate takes at most logic.MaxPins = %d",
				p.name, len(args), logic.MaxPins))
		}
		for j, fn := range args {
			src, ok := b.byName[fn]
			if !ok {
				errs = append(errs, fmt.Errorf("netlist: gate %q references undriven signal %q", p.name, fn))
				continue
			}
			c.Fanins[int(p.args)+j] = src
			c.FanoutOff[src+1]++
		}
		name := names[:len(p.name)]
		names = names[len(p.name):]
		c.Gates[i] = Gate{Name: name, Op: p.op}
		switch p.op {
		case logic.OpInput:
			c.PIs = append(c.PIs, GateID(i))
		case logic.OpDFF:
			c.DFFs = append(c.DFFs, GateID(i))
		}
	}
	for _, on := range b.outputs {
		id, ok := b.byName[on]
		if !ok {
			errs = append(errs, fmt.Errorf("netlist: primary output %q is undriven", on))
			continue
		}
		if c.Gates[id].PO {
			continue // declared twice
		}
		c.POs = append(c.POs, id)
		c.Gates[id].PO = true
	}
	// Levelizing a netlist with unresolved fanins would misattribute the
	// holes as cycles, so stop here once anything is wrong.
	if len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	// Consumers are visited in ID order, pins in pin order, so a gate that
	// reads a signal on two pins is listed twice in that signal's Fanout.
	outs := c.FanoutOff
	for g := 0; g < n; g++ {
		outs[g+1] += outs[g]
	}
	c.Fanouts = make([]GateID, len(c.Fanins))
	next := make([]int32, n)
	copy(next, outs)
	for i := range c.Gates {
		for _, src := range c.Fanin(GateID(i)) {
			c.Fanouts[next[src]] = GateID(i)
			next[src]++
		}
	}
	if err := c.levelize(); err != nil {
		return nil, err
	}
	return c, nil
}

// nameArena returns every gate name back to back, in gate order, in one
// freshly allocated string.
func (b *Builder) nameArena() string {
	size := 0
	for i := range b.gates {
		size += len(b.gates[i].name)
	}
	var sb strings.Builder
	sb.Grow(size)
	for i := range b.gates {
		sb.WriteString(b.gates[i].name)
	}
	return sb.String()
}

// levelize assigns combinational levels: sources (PIs, DFFs) at level 0,
// every other gate at 1 + max(fanin levels). Detects combinational cycles.
func (c *Circuit) levelize() error {
	const unset = int32(-1)
	// Kahn-style: count unresolved combinational fanins.
	pending := make([]int32, len(c.Gates))
	queue := make([]GateID, 0, len(c.Gates))
	for i := range c.Gates {
		g := &c.Gates[i]
		if g.IsSource() {
			g.Level = 0
			queue = append(queue, GateID(i))
			continue
		}
		g.Level = unset
		pending[i] = int32(len(c.Fanin(GateID(i))))
	}
	for head := 0; head < len(queue); head++ {
		for _, fo := range c.Fanout(queue[head]) {
			fg := &c.Gates[fo]
			if fg.IsSource() {
				continue // DFF D-input does not propagate levels
			}
			pending[fo]--
			if pending[fo] == 0 {
				lvl := int32(0)
				for _, fi := range c.Fanin(fo) {
					if l := c.Gates[fi].Level; l > lvl {
						lvl = l
					}
				}
				fg.Level = lvl + 1
				queue = append(queue, fo)
			}
		}
	}
	c.MaxLevel = 0
	for i := range c.Gates {
		l := c.Gates[i].Level
		if l == unset {
			return fmt.Errorf("netlist: combinational cycle through gate %q", c.Gates[i].Name)
		}
		if l > c.MaxLevel {
			c.MaxLevel = l
		}
	}
	// The buckets are cut from one array, each capped at its length so an
	// append to one cannot run into the next, and filled in ID order, so
	// each comes out sorted.
	ends := make([]int32, c.MaxLevel+2) // ends[l+1]: gates at level l, then the bucket's end
	for i := range c.Gates {
		if g := &c.Gates[i]; !g.IsSource() {
			ends[g.Level+1]++
		}
	}
	for l := int32(0); l <= c.MaxLevel; l++ {
		ends[l+1] += ends[l]
	}
	flat := make([]GateID, ends[c.MaxLevel+1])
	c.Levels = make([][]GateID, c.MaxLevel+1)
	for l := range c.Levels {
		c.Levels[l] = flat[ends[l]:ends[l+1]:ends[l+1]]
	}
	for i := range c.Gates {
		if g := &c.Gates[i]; !g.IsSource() {
			flat[ends[g.Level]] = GateID(i) // ends[l] now walks bucket l
			ends[g.Level]++
		}
	}
	return nil
}
