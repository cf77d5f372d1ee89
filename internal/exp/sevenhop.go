package exp

import (
	"context"
	"fmt"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// sevenHopVariants are the bar groups of Figures 11-14: the four TCP
// variants plus the artificially bounded NewReno and paced UDP.
var sevenHopVariants = []struct {
	name string
	t    core.TransportSpec
	udp  bool
}{
	{"Vegas", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2}, false},
	{"NewReno", core.TransportSpec{Protocol: core.ProtoNewReno}, false},
	{"Vegas Thin", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2, AckThinning: true}, false},
	{"NewReno Thin", core.TransportSpec{Protocol: core.ProtoNewReno, AckThinning: true}, false},
	{"NewReno OptWin", core.TransportSpec{Protocol: core.ProtoNewReno, MaxWindow: 3}, false},
	{"Paced UDP", core.TransportSpec{Protocol: core.ProtoPacedUDP}, true},
}

// sevenHopComparison renders one of Figures 11-14: a metric for every
// variant at 2, 5.5 and 11 Mbit/s on the 7-hop chain.
func sevenHopComparison(c *manetsim.Campaign, id, title, ylabel string, includeUDP bool, metric func(*core.Result) float64) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "bandwidth [Mbit/s]", YLabel: ylabel}
	for _, v := range sevenHopVariants {
		if v.udp && !includeUDP {
			continue
		}
		s := Series{Name: v.name}
		for _, r := range rates {
			t := v.t
			if v.udp {
				gap, err := c.OptimalUDPGap(context.Background(), 7, r)
				if err != nil {
					return nil, err
				}
				t.UDPGap = gap
			}
			res, err := c.Run(context.Background(), chainCfg(7, r, t))
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: rateLabel(r), Y: metric(res)})
		}
		f.Series = append(f.Series, s)
	}
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
// bandwidths (per-attempt failure rate; see DESIGN.md).
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
	for _, v := range sevenHopVariants {
		if v.udp {
			continue
		}
		s := Series{Name: v.name}
		for _, r := range rates {
			res, err := c.Run(context.Background(), chainCfg(7, r, v.t))
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: rateLabel(r), Y: res.Energy.JoulesPerMB})
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Ablation quantifies the two modelling decisions DESIGN.md calls out, on
// the 8-hop chain at 2 Mbit/s: the PHY capture rule and AODV's reaction to
// MAC failures.
func Ablation(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "ablation", Title: "8-hop chain, 2 Mbit/s: model ablations (Vegas / NewReno)",
		XLabel: "model", YLabel: "goodput [kbit/s] (+notes)",
	}
	type variant struct {
		x   string
		cfg func(core.Config) core.Config
	}
	variants := []variant{
		{"default (capture+AODV)", func(c core.Config) core.Config { return c }},
		{"no capture", func(c core.Config) core.Config { c.NoCapture = true; return c }},
		{"static routes", func(c core.Config) core.Config {
			c.Scenario = c.Scenario.Clone().WithRouting(core.RoutingStatic)
			return c
		}},
	}
	for _, proto := range []core.TransportSpec{
		{Protocol: core.ProtoVegas, Alpha: 2},
		{Protocol: core.ProtoNewReno},
	} {
		s := Series{Name: proto.Label()}
		for _, v := range variants {
			res, err := c.Run(context.Background(), v.cfg(chainCfg(8, phy.Rate2Mbps, proto)))
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: v.x, Y: kbit(res.AggGoodput.Mean)})
			f.Notes = append(f.Notes, fmt.Sprintf("%s / %s: rtx=%.4f frf=%d drop=%.4f",
				proto.Label(), v.x, res.Rtx.Mean, res.FalseRouteFailures, res.DropProb.Mean))
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}
