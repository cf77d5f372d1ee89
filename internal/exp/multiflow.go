package exp

import (
	"fmt"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// aggregateGoodputFigure renders Figures 16/18: aggregate goodput per
// bandwidth and variant for a multiflow scenario.
func aggregateGoodputFigure(c *manetsim.Campaign, id, title string, scn *core.Scenario) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "bandwidth [Mbit/s]", YLabel: "aggregate goodput [kbit/s]"}
	results, err := runGrid(c, len(headlineVariants), len(rates), func(s, x int) core.Config {
		return core.Config{Scenario: scn, Bandwidth: rates[x], Transport: headlineVariants[s].t}
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(headlineVariants), func(s, x int, r *core.Result) Point {
		if r.Truncated {
			f.Notes = append(f.Notes, fmt.Sprintf("%s at %s Mbit/s: truncated at %d packets",
				headlineVariants[s].name, rateLabel(rates[x]), r.Delivered))
		}
		return Point{X: rateLabel(rates[x]), Y: kbit(r.AggGoodput.Mean)}
	})
	return f, nil
}

// perFlowFigure renders Figures 17/19: per-flow goodput plus the aggregate
// at 11 Mbit/s for a multiflow scenario.
func perFlowFigure(c *manetsim.Campaign, id, title string, scn *core.Scenario) (*Figure, error) {
	f := &Figure{ID: id, Title: title, XLabel: "flow", YLabel: "goodput [kbit/s]"}
	results, err := runGrid(c, len(headlineVariants), 1, func(s, _ int) core.Config {
		return core.Config{Scenario: scn, Bandwidth: phy.Rate11Mbps, Transport: headlineVariants[s].t}
	})
	if err != nil {
		return nil, err
	}
	for si, row := range results {
		res := row[0]
		s := Series{Name: headlineVariants[si].name}
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
	results, err := runGrid(c, len(headlineVariants), len(rates), func(s, x int) core.Config {
		return core.Config{Scenario: scn, Bandwidth: rates[x], Transport: headlineVariants[s].t}
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(headlineVariants), func(_, x int, r *core.Result) Point {
		return Point{X: rateLabel(rates[x]), Y: r.Jain.Mean, CI: r.Jain.HalfCI}
	})
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
