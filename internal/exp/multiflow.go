package exp

import (
	"context"
	"fmt"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// multiflowVariants are the four TCP variants of the grid and random
// topology experiments.
var multiflowVariants = []struct {
	name string
	t    core.TransportSpec
}{
	{"Vegas", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2}},
	{"NewReno", core.TransportSpec{Protocol: core.ProtoNewReno}},
	{"Vegas Thin", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2, AckThinning: true}},
	{"NewReno Thin", core.TransportSpec{Protocol: core.ProtoNewReno, AckThinning: true}},
}

// aggregateGoodputFigure renders Figures 16/18: aggregate goodput per
// bandwidth and variant for a multiflow scenario.
func aggregateGoodputFigure(c *manetsim.Campaign, id, title string, scn *core.Scenario) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "bandwidth [Mbit/s]", YLabel: "aggregate goodput [kbit/s]"}
	for _, v := range multiflowVariants {
		var cfgs []core.Config
		for _, r := range rates {
			cfgs = append(cfgs, core.Config{Scenario: scn, Bandwidth: r, Transport: v.t})
		}
		results, err := c.RunAll(context.Background(), cfgs)
		if err != nil {
			return nil, err
		}
		s := Series{Name: v.name}
		for i, res := range results {
			s.Points = append(s.Points, Point{X: rateLabel(rates[i]), Y: kbit(res.AggGoodput.Mean)})
			if res.Truncated {
				f.Notes = append(f.Notes, fmt.Sprintf("%s at %s Mbit/s: truncated at %d packets",
					v.name, rateLabel(rates[i]), res.Delivered))
			}
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// perFlowFigure renders Figures 17/19: per-flow goodput plus the aggregate
// at 11 Mbit/s for a multiflow scenario.
func perFlowFigure(c *manetsim.Campaign, id, title string, scn *core.Scenario) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "flow", YLabel: "goodput [kbit/s]"}
	for _, v := range multiflowVariants {
		res, err := c.Run(context.Background(), core.Config{Scenario: scn, Bandwidth: phy.Rate11Mbps, Transport: v.t})
		if err != nil {
			return nil, err
		}
		s := Series{Name: v.name}
		for fi, est := range res.PerFlowGood {
			s.Points = append(s.Points, Point{X: fmt.Sprintf("FTP%d", fi+1), Y: kbit(est.Mean), CI: kbit(est.HalfCI)})
		}
		s.Points = append(s.Points, Point{X: "Aggregate", Y: kbit(res.AggGoodput.Mean), CI: kbit(res.AggGoodput.HalfCI)})
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// jainTable renders Tables 3/4: Jain's fairness index with 95% confidence
// intervals per bandwidth and variant.
func jainTable(c *manetsim.Campaign, id, title string, scn *core.Scenario) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "bandwidth [Mbit/s]", YLabel: "Jain's fairness index [95% CI]"}
	for _, v := range multiflowVariants {
		s := Series{Name: v.name}
		for _, r := range rates {
			res, err := c.Run(context.Background(), core.Config{Scenario: scn, Bandwidth: r, Transport: v.t})
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: rateLabel(r), Y: res.Jain.Mean, CI: res.Jain.HalfCI})
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// Fig16: grid topology — aggregate goodput for different bandwidths.
func Fig16(c *manetsim.Campaign) (*Figure, error) {
	return aggregateGoodputFigure(c, "fig16", "grid topology (21 nodes, 6 flows): aggregate goodput", core.Grid())
}

// Fig17: grid topology — per-flow goodput at 11 Mbit/s.
func Fig17(c *manetsim.Campaign) (*Figure, error) {
	return perFlowFigure(c, "fig17", "grid topology: per-flow goodput at 11 Mbit/s", core.Grid())
}

// Table3: grid topology — Jain's fairness index.
func Table3(c *manetsim.Campaign) (*Figure, error) {
	return jainTable(c, "table3", "grid topology: Jain's fairness index", core.Grid())
}

// Fig18: random topology — aggregate goodput for different bandwidths.
func Fig18(c *manetsim.Campaign) (*Figure, error) {
	return aggregateGoodputFigure(c, "fig18", "random topology (120 nodes, 10 flows): aggregate goodput", core.Random())
}

// Fig19: random topology — per-flow goodput at 11 Mbit/s.
func Fig19(c *manetsim.Campaign) (*Figure, error) {
	return perFlowFigure(c, "fig19", "random topology: per-flow goodput at 11 Mbit/s", core.Random())
}

// Table4: random topology — Jain's fairness index.
func Table4(c *manetsim.Campaign) (*Figure, error) {
	return jainTable(c, "table4", "random topology: Jain's fairness index", core.Random())
}
