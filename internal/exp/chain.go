package exp

import (
	"context"
	"fmt"
	"time"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
)

// chainHops is the paper's x-axis for the chain experiments.
var chainHops = []int{2, 4, 8, 16, 32, 64}

// rates is the paper's bandwidth axis.
var rates = []phy.Rate{phy.Rate2Mbps, phy.Rate5_5Mbps, phy.Rate11Mbps}

func rateLabel(r phy.Rate) string { return fmt.Sprintf("%g", float64(r)/1e6) }

func chainCfg(hops int, rate phy.Rate, t core.TransportSpec) core.Config {
	return core.Config{Scenario: core.Chain(hops), Bandwidth: rate, Transport: t}
}

// kbit converts bit/s to kbit/s.
func kbit(bps float64) float64 { return bps / 1e3 }

// Table2 reproduces the paper's Table 2 analytically: the 4-hop
// propagation delay per bandwidth.
func Table2(_ *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID:     "table2",
		Title:  "4-hop propagation delay for different bandwidths",
		XLabel: "bandwidth [Mbit/s]",
		YLabel: "delay [ms]",
	}
	s := Series{Name: "4-hop delay"}
	for _, r := range rates {
		d := mac.FourHopPropagationDelay(r)
		s.Points = append(s.Points, Point{X: rateLabel(r), Y: float64(d.Round(time.Millisecond).Milliseconds())})
	}
	f.Series = []Series{s}
	return f, nil
}

// vegasAlphas are the Vegas α values of Figures 2-4.
var vegasAlphas = []int{2, 3, 4}

func vegasAlphaName(s int) string { return fmt.Sprintf("Vegas α=%d", vegasAlphas[s]) }

// vegasAlphaSweep runs Vegas with α ∈ {2,3,4} over the chain lengths.
func vegasAlphaSweep(c *manetsim.Campaign, metric func(*core.Result) float64, id, title, ylabel string) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "hops", YLabel: ylabel}
	results, err := runGrid(c, len(vegasAlphas), len(chainHops), func(s, x int) core.Config {
		return chainCfg(chainHops[x], phy.Rate2Mbps, core.TransportSpec{Protocol: core.ProtoVegas, Alpha: vegasAlphas[s]})
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, vegasAlphaName, func(_, x int, r *core.Result) Point {
		return Point{X: fmt.Sprint(chainHops[x]), Y: metric(r)}
	})
	return f, nil
}

// Fig2: h-hop chain, 2 Mbit/s — Vegas goodput vs hops for α = 2, 3, 4.
func Fig2(c *manetsim.Campaign) (*Figure, error) {
	return vegasAlphaSweep(c, func(r *core.Result) float64 { return kbit(r.AggGoodput.Mean) },
		"fig2", "h-hop chain, 2 Mbit/s: Vegas goodput vs hops", "goodput [kbit/s]")
}

// Fig3: h-hop chain, 2 Mbit/s — Vegas average window vs hops.
func Fig3(c *manetsim.Campaign) (*Figure, error) {
	return vegasAlphaSweep(c, func(r *core.Result) float64 { return r.AvgWindow.Mean },
		"fig3", "h-hop chain, 2 Mbit/s: Vegas average window size vs hops", "window [packets]")
}

// Fig4: 7-hop chain — Vegas goodput per bandwidth for α = 2, 3, 4.
func Fig4(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "fig4", Title: "7-hop chain: Vegas goodput for different bandwidths",
		XLabel: "bandwidth [Mbit/s]", YLabel: "goodput [kbit/s]",
	}
	results, err := runGrid(c, len(vegasAlphas), len(rates), func(s, x int) core.Config {
		return chainCfg(7, rates[x], core.TransportSpec{Protocol: core.ProtoVegas, Alpha: vegasAlphas[s]})
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, vegasAlphaName, func(_, x int, r *core.Result) Point {
		return Point{X: rateLabel(rates[x]), Y: kbit(r.AggGoodput.Mean)}
	})
	return f, nil
}

// Fig5: h-hop chain, 2 Mbit/s — Vegas α=2 vs Vegas with ACK thinning for
// α = 2, 3, 4.
func Fig5(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "fig5", Title: "h-hop chain, 2 Mbit/s: Vegas with ACK thinning, goodput vs hops",
		XLabel: "hops", YLabel: "goodput [kbit/s]",
	}
	variants := []variant{
		{"Vegas α=2", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2}},
		{"Vegas α=2 Thin", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2, AckThinning: true}},
		{"Vegas α=3 Thin", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 3, AckThinning: true}},
		{"Vegas α=4 Thin", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 4, AckThinning: true}},
	}
	results, err := runGrid(c, len(variants), len(chainHops), func(s, x int) core.Config {
		return chainCfg(chainHops[x], phy.Rate2Mbps, variants[s].t)
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(variants), func(_, x int, r *core.Result) Point {
		return Point{X: fmt.Sprint(chainHops[x]), Y: kbit(r.AggGoodput.Mean)}
	})
	return f, nil
}

// chainVariants are the protocols of Figures 6-9.
var chainVariants = []variant{
	{"Vegas", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2}},
	{"NewReno", core.TransportSpec{Protocol: core.ProtoNewReno}},
	{"NewReno Thin", core.TransportSpec{Protocol: core.ProtoNewReno, AckThinning: true}},
}

// pacedUDP is the paced-UDP series; its gap is searched per x-axis point.
var pacedUDP = variant{"Paced UDP", core.TransportSpec{Protocol: core.ProtoPacedUDP}}

// chainComparison builds a Figures-6..9 style figure over the chain with
// the TCP variants and optionally the optimally paced UDP. The gap search
// runs first, then every series in one grid.
func chainComparison(c *manetsim.Campaign, id, title, ylabel string, includeUDP bool, metric func(*core.Result) float64) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "hops", YLabel: ylabel}
	variants := chainVariants
	gaps := make([]time.Duration, len(chainHops))
	if includeUDP {
		variants = append(variants[:len(variants):len(variants)], pacedUDP)
		for i, hops := range chainHops {
			gap, err := c.OptimalUDPGap(context.Background(), hops, phy.Rate2Mbps)
			if err != nil {
				return nil, err
			}
			gaps[i] = gap
			f.Notes = append(f.Notes, fmt.Sprintf("paced UDP at %d hops: optimal gap %v", hops, gap))
		}
	}
	results, err := runGrid(c, len(variants), len(chainHops), func(s, x int) core.Config {
		t := variants[s].t
		if t.Protocol == core.ProtoPacedUDP {
			t.UDPGap = gaps[x]
		}
		return chainCfg(chainHops[x], phy.Rate2Mbps, t)
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(variants), func(_, x int, r *core.Result) Point {
		return Point{X: fmt.Sprint(chainHops[x]), Y: metric(r)}
	})
	return f, nil
}

// Fig6: goodput vs hops for Vegas, NewReno, NewReno+thinning and paced UDP.
func Fig6(c *manetsim.Campaign) (*Figure, error) {
	return chainComparison(c, "fig6", "h-hop chain, 2 Mbit/s: goodput vs hops",
		"goodput [kbit/s]", true, func(r *core.Result) float64 { return kbit(r.AggGoodput.Mean) })
}

// Fig7: transport retransmissions per delivered packet vs hops.
func Fig7(c *manetsim.Campaign) (*Figure, error) {
	return chainComparison(c, "fig7", "h-hop chain, 2 Mbit/s: retransmissions vs hops",
		"retransmissions per delivered packet", false, func(r *core.Result) float64 { return r.Rtx.Mean })
}

// Fig8: average window size vs hops.
func Fig8(c *manetsim.Campaign) (*Figure, error) {
	return chainComparison(c, "fig8", "h-hop chain, 2 Mbit/s: window size vs hops",
		"window [packets]", false, func(r *core.Result) float64 { return r.AvgWindow.Mean })
}

// Fig9: false route failures vs hops (including paced UDP).
func Fig9(c *manetsim.Campaign) (*Figure, error) {
	return chainComparison(c, "fig9", "h-hop chain, 2 Mbit/s: false route failures vs hops",
		"false route failures (measured portion)", true, func(r *core.Result) float64 { return float64(r.FalseRouteFailures) })
}

// Fig10: 7-hop chain, 2 Mbit/s — paced UDP goodput vs inter-packet time.
func Fig10(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "fig10", Title: "7-hop chain, 2 Mbit/s: paced UDP goodput vs packet inter-sending time",
		XLabel: "gap [ms]", YLabel: "goodput [kbit/s]",
	}
	var gaps []time.Duration
	for ms := 28; ms <= 44; ms += 2 {
		gaps = append(gaps, time.Duration(ms)*time.Millisecond)
	}
	results, err := runGrid(c, 1, len(gaps), func(_, x int) core.Config {
		return chainCfg(7, phy.Rate2Mbps, core.TransportSpec{Protocol: core.ProtoPacedUDP, UDPGap: gaps[x]})
	})
	if err != nil {
		return nil, err
	}
	s := Series{Name: pacedUDP.name}
	bestGap, bestG := time.Duration(0), -1.0
	for i, res := range results[0] {
		g := kbit(res.AggGoodput.Mean)
		s.Points = append(s.Points, Point{X: fmt.Sprint(gaps[i].Milliseconds()), Y: g})
		if g > bestG {
			bestG, bestGap = g, gaps[i]
		}
	}
	f.Series = []Series{s}
	f.Notes = append(f.Notes, fmt.Sprintf("measured t_opt = %v (paper: 35.7 ms)", bestGap))
	return f, nil
}
