// Gridfairness reproduces the essence of the paper's grid experiment
// (Figures 15-17, Table 3): six FTP flows crossing a 21-node grid, where
// NewReno lets two flows starve the rest while Vegas — and especially
// Vegas with ACK thinning — shares the medium far more fairly.
//
//	go run ./examples/gridfairness
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

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
	variants := []struct {
		name string
		t    manetsim.TransportSpec
	}{
		{"Vegas", manetsim.TransportSpec{Protocol: manetsim.Vegas}},
		{"NewReno", manetsim.TransportSpec{Protocol: manetsim.NewReno}},
		{"Vegas + ACK thinning", manetsim.TransportSpec{Protocol: manetsim.Vegas, AckThinning: true}},
		{"NewReno + ACK thinning", manetsim.TransportSpec{Protocol: manetsim.NewReno, AckThinning: true}},
	}

	fmt.Println("21-node grid, 6 competing FTP flows, 11 Mbit/s:")
	for _, v := range variants {
		res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
			Scenario:     manetsim.Grid(),
			Bandwidth:    manetsim.Rate11Mbps,
			Transport:    v.t,
			Seed:         1,
			TotalPackets: demoPackets(22000),
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s:\n", v.name)
		fmt.Printf("  aggregate goodput: %.0f kbit/s, Jain fairness %.2f [%.2f:%.2f]\n",
			res.AggGoodput.Mean/1e3, res.Jain.Mean, res.Jain.Lo(), res.Jain.Hi())
		for i, est := range res.PerFlowGood {
			bar := strings.Repeat("#", int(est.Mean/2e4))
			fmt.Printf("  FTP%d %7.0f kbit/s %s\n", i+1, est.Mean/1e3, bar)
		}
	}
}
