// Coexistence demonstrates per-flow transport mixing: three Vegas flows
// and three NewReno flows share the 21-node grid. Loss-based NewReno
// probes until packets drop while delay-based Vegas backs off as soon as
// queues build, so the NewReno group tends to crowd out the Vegas group —
// the classic inter-protocol fairness problem, quantified over this
// paper's wireless substrate.
//
//	go run ./examples/coexistence
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"

	"manetsim"
)

// demoPackets returns the demo's packet budget, overridable through
// MANETSIM_EXAMPLE_PACKETS (CI runs every example at reduced scale).
func demoPackets(def int64) int64 {
	if s := os.Getenv("MANETSIM_EXAMPLE_PACKETS"); s != "" {
		if n, err := strconv.ParseInt(s, 10, 64); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func main() {
	vegas := manetsim.TransportSpec{Name: "vegas"}
	newreno := manetsim.TransportSpec{Name: "newreno"}
	// Alternate protocols within each geometry class (FTP1-3 are 6-hop
	// horizontal flows, FTP4-6 are 2-hop vertical ones) so path length
	// does not confound the protocol comparison.
	isVegas := []bool{true, false, true, false, true, false}
	scn := manetsim.Grid()
	for i, v := range isVegas {
		if v {
			scn.Flows[i].Transport = vegas
		} else {
			scn.Flows[i].Transport = newreno
		}
	}
	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     scn,
		Bandwidth:    manetsim.Rate11Mbps,
		Seed:         1,
		TotalPackets: demoPackets(22000),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("grid, 11 Mbit/s: 3 Vegas flows vs 3 NewReno flows (geometry balanced)")
	var vSum, nSum float64
	for i, est := range res.PerFlowGood {
		proto := "Vegas  "
		if !isVegas[i] {
			proto = "NewReno"
			nSum += est.Mean
		} else {
			vSum += est.Mean
		}
		fmt.Printf("  FTP%d [%s] %8.1f kbit/s\n", i+1, proto, est.Mean/1e3)
	}
	fmt.Printf("\n  Vegas group:   %8.1f kbit/s\n", vSum/1e3)
	fmt.Printf("  NewReno group: %8.1f kbit/s\n", nSum/1e3)
	fmt.Printf("  overall Jain fairness: %.2f\n", res.Jain.Mean)
}
