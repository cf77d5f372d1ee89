package exp

import (
	"fmt"
	"time"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// mobilitySpeeds is the x-axis of the mobility experiment: maximum random
// waypoint speed in m/s (0 = the paper's static setting).
var mobilitySpeeds = []float64{0, 2.5, 5, 10, 20}

// mobilityCfg is one flow across the 21 grid nodes, which roam their
// bounding box by random waypoint at up to maxSpeed. The endpoints are the
// middle row's ends — edge midpoints keep relay coverage under the random
// waypoint density (corners go dark for long stretches) — and stay pinned,
// so the ~6-hop path length is controlled while the relays churn. The
// field (1200x400 m at 250 m range) is dense enough that partitions heal
// quickly, and AODV's repair machinery — finally facing genuine route
// breaks — gets continuously exercised.
func mobilityCfg(maxSpeed float64, t core.TransportSpec) core.Config {
	scn := core.Grid().WithFlows(core.Flow{Src: 7, Dst: 13})
	if maxSpeed > 0 {
		scn.Mobility = core.MobilitySpec{
			Kind:     core.MobilityRandomWaypoint,
			MaxSpeed: maxSpeed,
			Pause:    2 * time.Second,
			// Only relays move: otherwise the endpoints drift toward the
			// field center (the RWP density concentration) and the path
			// shortens with speed, masking the route-churn effect under
			// measurement.
			PinFlowEndpoints: true,
		}
	}
	return core.Config{
		Scenario:  scn,
		Bandwidth: phy.Rate2Mbps,
		Transport: t,
		// Guard against a rare long partition stalling the sweep.
		MaxSimTime: 2 * time.Hour,
	}
}

func speedLabel(v float64) string { return fmt.Sprintf("%g", v) }

// Mobility is the first experiment beyond the paper's static world: goodput
// of Vegas vs NewReno (with and without ACK thinning) as a function of
// maximum node speed, with retransmissions and the true/false route-failure
// split in the notes. At speed 0 every route failure is false (the paper's
// pathology); at nonzero speed genuine breaks appear and goodput degrades
// with speed.
func Mobility(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID:     "mobility",
		Title:  "grid field, random waypoint: goodput vs maximum node speed",
		XLabel: "max speed [m/s]",
		YLabel: "goodput [kbit/s]",
	}
	results, err := runGrid(c, len(headlineVariants), len(mobilitySpeeds), func(s, x int) core.Config {
		return mobilityCfg(mobilitySpeeds[x], headlineVariants[s].t)
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(headlineVariants), func(s, x int, r *core.Result) Point {
		speed := speedLabel(mobilitySpeeds[x])
		f.Notes = append(f.Notes, fmt.Sprintf("%s / %s m/s: rtx=%.4f true-rf=%d false-rf=%d%s",
			headlineVariants[s].name, speed, r.Rtx.Mean, r.TrueRouteFailures, r.FalseRouteFailures, truncatedMark(r)))
		return Point{X: speed, Y: kbit(r.AggGoodput.Mean), CI: kbit(r.AggGoodput.HalfCI)}
	})
	return f, nil
}

func truncatedMark(res *core.Result) string {
	if res.Truncated {
		return " (truncated)"
	}
	return ""
}
