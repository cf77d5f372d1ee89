// Randomadhoc runs the paper's random-topology scenario (Figures 18/19,
// Table 4): 120 nodes placed uniformly on 2500x1000 m², ten FTP flows
// between random endpoints, AODV routing. It compares Vegas and NewReno on
// aggregate goodput and fairness.
//
//	go run ./examples/randomadhoc
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
	fmt.Println("random ad hoc network: 120 nodes, 2500x1000 m², 10 flows, 11 Mbit/s")
	for _, v := range []struct {
		name string
		t    manetsim.TransportSpec
	}{
		{"Vegas", manetsim.TransportSpec{Protocol: manetsim.Vegas}},
		{"NewReno", manetsim.TransportSpec{Protocol: manetsim.NewReno}},
	} {
		res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
			Scenario:     manetsim.Random(),
			Bandwidth:    manetsim.Rate11Mbps,
			Transport:    v.t,
			Seed:         7,
			TotalPackets: demoPackets(11000),
		})
		if err != nil {
			log.Fatal(err)
		}
		starved := 0
		for _, est := range res.PerFlowGood {
			if est.Mean < res.AggGoodput.Mean/100 {
				starved++
			}
		}
		fmt.Printf("\n%s:\n", v.name)
		fmt.Printf("  aggregate goodput: %.0f kbit/s\n", res.AggGoodput.Mean/1e3)
		fmt.Printf("  Jain fairness:     %.2f [%.2f:%.2f]\n", res.Jain.Mean, res.Jain.Lo(), res.Jain.Hi())
		fmt.Printf("  starved flows:     %d of %d (goodput < 1%% of aggregate)\n", starved, len(res.PerFlowGood))
		for i, est := range res.PerFlowGood {
			f := res.Flows[i]
			fmt.Printf("    flow %2d (%3d->%3d): %7.1f kbit/s\n", i+1, f.Src, f.Dst, est.Mean/1e3)
		}
	}
}
