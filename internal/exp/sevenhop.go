package exp

import (
	"context"
	"fmt"
	"time"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// sevenHopVariants are the bar groups of Figures 11-14: the four headline
// TCP variants, the artificially bounded NewReno, and paced UDP last.
var sevenHopVariants = append(headlineVariants[:len(headlineVariants):len(headlineVariants)],
	variant{"NewReno OptWin", core.TransportSpec{Protocol: core.ProtoNewReno, MaxWindow: 3}},
	pacedUDP,
)

// sevenHopTCP are the TCP bar groups of sevenHopVariants.
var sevenHopTCP = sevenHopVariants[:len(sevenHopVariants)-1]

// sevenHopComparison renders one of Figures 11-14: a metric for every
// variant at 2, 5.5 and 11 Mbit/s on the 7-hop chain. With paced UDP the
// gap search runs first, then every bar in one grid.
func sevenHopComparison(c *manetsim.Campaign, id, title, ylabel string, includeUDP bool, metric func(*core.Result) float64) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "bandwidth [Mbit/s]", YLabel: ylabel}
	variants := sevenHopTCP
	gaps := make([]time.Duration, len(rates))
	if includeUDP {
		variants = sevenHopVariants
		for i, r := range rates {
			gap, err := c.OptimalUDPGap(context.Background(), 7, r)
			if err != nil {
				return nil, err
			}
			gaps[i] = gap
		}
	}
	results, err := runGrid(c, len(variants), len(rates), func(s, x int) core.Config {
		t := variants[s].t
		if t.Protocol == core.ProtoPacedUDP {
			t.UDPGap = gaps[x]
		}
		return chainCfg(7, rates[x], t)
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(variants), func(_, x int, r *core.Result) Point {
		return Point{X: rateLabel(rates[x]), Y: metric(r)}
	})
	return f, nil
}

// Fig11: 7-hop chain — goodput for different bandwidths, all variants.
func Fig11(c *manetsim.Campaign) (*Figure, error) {
	return sevenHopComparison(c, "fig11", "7-hop chain: goodput for different bandwidths",
		"goodput [kbit/s]", true, func(r *core.Result) float64 { return kbit(r.AggGoodput.Mean) })
}

// Fig12: 7-hop chain — transport retransmissions for different bandwidths.
func Fig12(c *manetsim.Campaign) (*Figure, error) {
	return sevenHopComparison(c, "fig12", "7-hop chain: retransmissions for different bandwidths",
		"retransmissions per delivered packet", false, func(r *core.Result) float64 { return r.Rtx.Mean })
}

// Fig13: 7-hop chain — average window size for different bandwidths.
func Fig13(c *manetsim.Campaign) (*Figure, error) {
	return sevenHopComparison(c, "fig13", "7-hop chain: window size for different bandwidths",
		"window [packets]", false, func(r *core.Result) float64 { return r.AvgWindow.Mean })
}

// Fig14: 7-hop chain — link-layer dropping probability for different
// bandwidths. It is the per-attempt failure rate: failed RTS and DATA
// attempts over all unicast attempts (Batch.MACDrops), so every retry
// counts, not only the frames the retry limit drops.
func Fig14(c *manetsim.Campaign) (*Figure, error) {
	return sevenHopComparison(c, "fig14", "7-hop chain: packet dropping probability at link layer",
		"per-attempt failure probability", true, func(r *core.Result) float64 { return r.DropProb.Mean })
}

// Energy is an extension experiment quantifying the paper's energy-saving
// claims: joules per delivered megabyte on the 7-hop chain.
func Energy(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "energy", Title: "7-hop chain: radio energy per delivered megabyte",
		XLabel: "bandwidth [Mbit/s]", YLabel: "J/MB",
	}
	results, err := runGrid(c, len(sevenHopTCP), len(rates), func(s, x int) core.Config {
		return chainCfg(7, rates[x], sevenHopTCP[s].t)
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(sevenHopTCP), func(_, x int, r *core.Result) Point {
		return Point{X: rateLabel(rates[x]), Y: r.Energy.JoulesPerMB}
	})
	return f, nil
}

// Ablation quantifies, on the 8-hop chain at 2 Mbit/s, the two modelling
// choices behind the paper's pathology: the PHY capture rule (a frame
// survives interference 10 dB weaker than itself; "no capture" lets any
// overlap corrupt it) and AODV's reaction to MAC failures (a give-up tears
// down the route, the false route failure; "static routes" takes AODV out).
func Ablation(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "ablation", Title: "8-hop chain, 2 Mbit/s: model ablations (Vegas / NewReno)",
		XLabel: "model", YLabel: "goodput [kbit/s] (+notes)",
	}
	models := []struct {
		x   string
		cfg func(core.Config) core.Config
	}{
		{"default (capture+AODV)", func(c core.Config) core.Config { return c }},
		{"no capture", func(c core.Config) core.Config { c.NoCapture = true; return c }},
		{"static routes", func(c core.Config) core.Config {
			c.Scenario = c.Scenario.Clone().WithRouting(core.RoutingStatic)
			return c
		}},
	}
	protos := []core.TransportSpec{
		{Protocol: core.ProtoVegas, Alpha: 2},
		{Protocol: core.ProtoNewReno},
	}
	results, err := runGrid(c, len(protos), len(models), func(s, x int) core.Config {
		return models[x].cfg(chainCfg(8, phy.Rate2Mbps, protos[s]))
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, func(s int) string { return protos[s].Label() }, func(s, x int, r *core.Result) Point {
		f.Notes = append(f.Notes, fmt.Sprintf("%s / %s: rtx=%.4f frf=%d drop=%.4f",
			protos[s].Label(), models[x].x, r.Rtx.Mean, r.FalseRouteFailures, r.DropProb.Mean))
		return Point{X: models[x].x, Y: kbit(r.AggGoodput.Mean)}
	})
	return f, nil
}
