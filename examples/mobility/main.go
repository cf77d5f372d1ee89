// Mobility: one TCP flow across the grid's middle row while the other 19
// nodes roam by random waypoint. Compares a static network against 5 and
// 20 m/s movement, showing goodput loss and the split between genuine
// route breaks (the hop moved away) and the paper's false route failures
// (contention on a healthy link).
//
//	go run ./examples/mobility
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
	fmt.Println("TCP Vegas, grid field (1200x400 m), flow 7->13, random waypoint relays:")
	for _, maxSpeed := range []float64{0, 5, 20} {
		scn := manetsim.Grid().WithFlows(manetsim.Flow{Src: 7, Dst: 13})
		if maxSpeed > 0 {
			scn.WithMobility(manetsim.MobilitySpec{
				Kind:     manetsim.MobilityRandomWaypoint,
				MaxSpeed: maxSpeed,
				Pause:    2 * time.Second,
				// Endpoints stay put so the path length is controlled and
				// only route churn varies with speed.
				PinFlowEndpoints: true,
			})
		}
		res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
			Scenario:  scn,
			Bandwidth: manetsim.Rate2Mbps,
			Transport: manetsim.TransportSpec{Name: "vegas"},
			Seed:      1,
			// Reduced scale for a fast demo.
			TotalPackets: demoPackets(11000),
			MaxSimTime:   2 * time.Hour,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  vmax %4.1f m/s: goodput %6.1f kbit/s (±%.1f), rtx %.4f/pkt, route failures %d true / %d false\n",
			maxSpeed, res.AggGoodput.Mean/1e3, res.AggGoodput.HalfCI/1e3,
			res.Rtx.Mean, res.TrueRouteFailures, res.FalseRouteFailures)
	}
	fmt.Println("(at 0 m/s every route failure is false — the paper's pathology;")
	fmt.Println(" with movement AODV's repair machinery faces genuine breaks too)")
}
