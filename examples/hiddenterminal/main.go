// Hiddenterminal measures the classic RTS/CTS trade-off on the
// interference-limited hidden-terminal topology: two parallel one-hop
// flows whose senders cannot carrier-sense each other but still collide
// at the first receiver. With the handshake on, a collision costs a
// 20-byte RTS; with basic access (RTSThreshold above the frame size), it
// costs a full data frame and its retries. The example runs both and
// prints goodput, Jain's fairness over the two flows, and the
// link-layer drop probability.
//
//	go run ./examples/hiddenterminal
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
	total := demoPackets(11000)
	modes := []struct {
		name      string
		threshold int
	}{
		{"RTS/CTS on every frame", 0},
		{"basic access (no RTS)", 4096},
	}
	fmt.Println("hidden-terminal topology, NewReno, 2 Mbit/s:")
	for _, m := range modes {
		res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
			Scenario:     manetsim.HiddenTerminal(),
			Transport:    manetsim.TransportSpec{Name: "newreno"},
			RTSThreshold: m.threshold,
			TotalPackets: total,
			BatchPackets: total / 11,
			Seed:         1,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s goodput %7.1f kb/s  Jain %.3f  link drops %.4f/attempt\n",
			m.name, res.AggGoodput.Mean/1e3, res.Jain.Mean, res.DropProb.Mean)
	}
	fmt.Println("\n(the senders are out of carrier-sense range of each other, so")
	fmt.Println(" only the RTS/CTS reservation keeps their collisions cheap)")
}
