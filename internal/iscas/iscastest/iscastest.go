// Package iscastest holds the circuit helpers tests share across
// packages: a bundled circuit that must load, a gate that must exist, a
// circuit as .bench text. Production code never imports it.
package iscastest

import (
	"fmt"
	"strings"

	"repro/internal/iscas"
	"repro/internal/netlist"
)

// MustGet is iscas.Get for static names: it panics on an unknown one.
func MustGet(name string) *netlist.Circuit {
	c, err := iscas.Get(name)
	if err != nil {
		panic(err)
	}
	return c
}

// MustByName returns the gate with the given signal name and panics if
// there is none. It scans the gates: a circuit keeps no name index, since
// no simulation path looks a name up.
func MustByName(c *netlist.Circuit, name string) netlist.GateID {
	for i := range c.Gates {
		if c.Gates[i].Name == name {
			return netlist.GateID(i)
		}
	}
	panic(fmt.Sprintf("iscastest: no gate named %q in %s", name, c.Name))
}

// BenchString renders the circuit as .bench text.
func BenchString(c *netlist.Circuit) string {
	var sb strings.Builder
	if err := netlist.WriteBench(&sb, c); err != nil {
		panic(err) // strings.Builder never errors
	}
	return sb.String()
}
