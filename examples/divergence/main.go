// Divergence walks the paper's Figure 1: concurrent fault simulation
// represents a faulty machine explicitly only where it differs from the
// good machine. Driving a small circuit vector by vector, the trace shows
// fault elements diverging when an effect appears, converging when the
// machine re-joins the good machine, and dropping on detection.
package main

import (
	"fmt"
	"log"

	faultsim "repro"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// Like Figure 1: G1 fans out to G3 and G4, so a fault effect at G1 can
// stay alive through one path while converging on the other.
const bench = `
INPUT(a)
INPUT(b)
INPUT(c)
OUTPUT(z3)
OUTPUT(z4)
g1 = AND(a, b)
g2 = OR(b, c)
z3 = OR(g1, c)
z4 = AND(g1, g2)
`

func main() {
	c, err := faultsim.ParseBench("fig1", bench)
	if err != nil {
		log.Fatal(err)
	}
	u := faultsim.StuckFaults(c)

	cfg := faultsim.CsimV() // no macros, so every gate is visible in the trace
	flog := faultsim.NewFaultLog(u.NumFaults(), nil)
	cfg.Obs = &faultsim.Observer{Faults: flog}
	sim, err := faultsim.New(u, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// The log also carries injected/visible/latched/dropped events; the
	// Figure 1 story is the three below.
	kinds := map[obs.FaultEventKind]string{
		obs.FaultDiverged:  "diverge ",
		obs.FaultConverged: "converge",
		obs.FaultDetected:  "DETECT  ",
	}
	printed := 0 // events already shown

	seq := [][]byte{
		{'1', '1', '0'}, // activates faults on the g1 cone
		{'0', '1', '0'}, // g1 falls: some machines converge, others persist
		{'1', '0', '1'}, // Figure 1.2: fault implicit at g1, explicit beyond
		{'0', '0', '0'},
	}
	for t, row := range seq {
		fmt.Printf("vector %d: a=%c b=%c c=%c\n", t, row[0], row[1], row[2])
		vs, err := faultsim.ParseVectors(string(row)+"\n", 3)
		if err != nil {
			log.Fatal(err)
		}
		sim.Cycle(vs.Vecs[0])
		events, _ := flog.Events()
		for _, ev := range events[printed:] {
			if kind, ok := kinds[ev.Kind]; ok {
				fmt.Printf("  t=%d  %s  fault %-14s at gate %s\n",
					ev.Vec, kind, u.Faults[ev.Fault].Name(c), c.Gate(netlist.GateID(ev.Gate)).Name)
			}
		}
		printed = len(events)
		st := sim.Stats()
		fmt.Printf("  live fault elements: %d\n", st.CurElems)
	}

	res := sim.Result()
	fmt.Printf("\ndetected %d/%d faults in %d vectors\n",
		res.NumDet, u.NumFaults(), len(seq))
}
