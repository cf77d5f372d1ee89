// Custom builds a scenario the paper's fixed topologies could not
// express: a cross-shaped relay network with explicit node placement,
// heterogeneous per-flow transports (a Vegas transfer, a competing NewReno
// transfer joining late, and paced-UDP cross traffic), per-flow start
// times, and a live Observer streaming classified route failures and
// batch progress out of the run.
//
//	go run ./examples/custom
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

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
	// A cross: two 4-hop chains sharing their center relay. The arms are
	// 200 m per hop, so only neighbors hear each other and the center is
	// the contention hot spot.
	scn := manetsim.NewScenario("cross")
	var west, east, north, south [3]manetsim.NodeID
	center := scn.AddNode(0, 0)
	for i := 0; i < 3; i++ {
		d := float64(i+1) * 200
		west[i] = scn.AddNode(-d, 0)
		east[i] = scn.AddNode(d, 0)
		north[i] = scn.AddNode(0, d)
		south[i] = scn.AddNode(0, -d)
	}
	_ = center

	// Three flows, three transports, staggered starts: the Vegas transfer
	// runs alone for the first simulated seconds, then NewReno joins on
	// the crossing arm, and paced UDP adds constant cross traffic.
	scn.Add(manetsim.Flow{
		Src: west[2], Dst: east[2],
		Transport: manetsim.TransportSpec{Name: "vegas"},
	})
	scn.Add(manetsim.Flow{
		Src: north[2], Dst: south[2],
		Transport: manetsim.TransportSpec{Name: "newreno"},
		Start:     5 * time.Second,
	})
	scn.Add(manetsim.Flow{
		Src: north[0], Dst: west[0],
		Transport: manetsim.TransportSpec{Name: "pacedudp", UDPGap: 120 * time.Millisecond},
		Start:     10 * time.Second,
	})

	// Stream run events while it executes.
	var falseRF, trueRF, rtx int
	obs := &manetsim.Observer{
		RouteFailure: func(node manetsim.NodeID, falseFailure bool) {
			if falseFailure {
				falseRF++
			} else {
				trueRF++
			}
		},
		Retransmit: func(flow int) { rtx++ },
		Progress: func(delivered, total int64, simTime time.Duration) {
			fmt.Printf("  ... %5.1f%% delivered at t=%v\n",
				100*float64(delivered)/float64(total), simTime.Round(time.Second))
		},
	}

	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     scn,
		Bandwidth:    manetsim.Rate2Mbps,
		Seed:         1,
		TotalPackets: demoPackets(5500),
		Observer:     obs,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ncross scenario (13 nodes, 3 heterogeneous flows):")
	names := []string{"Vegas west->east", "NewReno north->south (t+5s)", "PacedUDP cross (t+10s)"}
	for i, est := range res.PerFlowGood {
		fmt.Printf("  %-28s %8.1f kbit/s\n", names[i], est.Mean/1e3)
	}
	fmt.Printf("  aggregate %.1f kbit/s over %v simulated\n",
		res.AggGoodput.Mean/1e3, res.SimTime.Round(time.Second))
	fmt.Printf("  observed live: %d retransmissions, %d false / %d true route failures\n",
		rtx, falseRF, trueRF)
}
