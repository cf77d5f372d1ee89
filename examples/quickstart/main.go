// Quickstart: simulate one TCP Vegas flow over a 7-hop 802.11 chain at
// 2 Mbit/s and print the headline metrics.
//
//	go run ./examples/quickstart
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
	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:  manetsim.Chain(7),
		Bandwidth: manetsim.Rate2Mbps,
		Transport: manetsim.TransportSpec{Name: "vegas"},
		Seed:      1,
		// Reduced scale for a fast demo; drop this field for the paper's
		// full 110000-packet methodology.
		TotalPackets: demoPackets(11000),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("TCP Vegas over a 7-hop IEEE 802.11 chain (2 Mbit/s):")
	fmt.Printf("  goodput:             %.1f kbit/s (95%% CI ±%.1f)\n",
		res.AggGoodput.Mean/1e3, res.AggGoodput.HalfCI/1e3)
	fmt.Printf("  average window:      %.2f packets\n", res.AvgWindow.Mean)
	fmt.Printf("  retransmissions:     %.4f per delivered packet\n", res.Rtx.Mean)
	fmt.Printf("  false route failures: %d\n", res.FalseRouteFailures)
	fmt.Printf("  simulated time:      %v for %d packets\n", res.SimTime.Round(1e9), res.Delivered)
}
