// Energy quantifies the paper's energy argument: Vegas' near-zero
// retransmission count and small window translate into less radio air time
// — and therefore fewer joules — per delivered megabyte, which is what
// matters for battery-powered ad hoc devices.
//
//	go run ./examples/energy
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
	fmt.Println("8-hop chain, 2 Mbit/s: energy per delivered megabyte")
	fmt.Printf("%-24s %12s %12s %14s\n", "variant", "J/MB", "rtx/pkt", "goodput kbit/s")
	type row struct {
		name string
		t    manetsim.TransportSpec
	}
	for _, v := range []row{
		{"Vegas", manetsim.TransportSpec{Name: "vegas"}},
		{"Vegas + thinning", manetsim.TransportSpec{Name: "vegas", AckThinning: true}},
		{"NewReno", manetsim.TransportSpec{Name: "newreno"}},
		{"NewReno + thinning", manetsim.TransportSpec{Name: "newreno", AckThinning: true}},
	} {
		res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
			Scenario:     manetsim.Chain(8),
			Bandwidth:    manetsim.Rate2Mbps,
			Transport:    v.t,
			Seed:         1,
			TotalPackets: demoPackets(11000),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %12.1f %12.4f %14.1f\n",
			v.name, res.Energy.JoulesPerMB, res.Rtx.Mean, res.AggGoodput.Mean/1e3)
	}
	fmt.Println("\n(lower J/MB is better; the gap tracks the retransmission counts,")
	fmt.Println(" matching the paper's energy-consumption argument)")
}
