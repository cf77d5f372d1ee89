package exp

import (
	"fmt"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// renoWestwood are the series of the lossy and chaos experiments: blind
// window halving against Westwood+'s bandwidth-estimate backoff.
var renoWestwood = []variant{
	{"Reno", core.TransportSpec{Name: "reno"}},
	{"Westwood+", core.TransportSpec{Name: "westwood"}},
}

// Lossy is an extension experiment over the link-impairment subsystem:
// Reno versus Westwood+ on the 7-hop chain under uniform per-frame loss
// ramped from 0% to 5%. In this regime losses are random, not
// congestive, so Reno's blind window halving over-reacts while
// Westwood+'s bandwidth-estimate backoff holds its rate — the gap is
// the non-congestion-loss argument of the wireless TCP literature made
// measurable.
func Lossy(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "lossy", Title: "7-hop chain, 2 Mbit/s: goodput vs uniform frame loss (Reno vs Westwood+)",
		XLabel: "frame loss [%]", YLabel: "goodput [kbit/s]",
	}
	lossAxis := []float64{0, 0.01, 0.02, 0.05}
	results, err := runGrid(c, len(renoWestwood), len(lossAxis), func(s, x int) core.Config {
		cfg := chainCfg(7, phy.Rate2Mbps, renoWestwood[s].t)
		if p := lossAxis[x]; p > 0 {
			cfg.LinkModel = core.UniformLossModel(p)
		}
		return cfg
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(renoWestwood), func(_, x int, r *core.Result) Point {
		return Point{X: fmt.Sprintf("%g", lossAxis[x]*100), Y: kbit(r.AggGoodput.Mean)}
	})
	f.Notes = append(f.Notes,
		"loss is injected per frame copy at the PHY (model: uniform), below the MAC's ARQ — TCP only sees the residue the retry limit lets through")
	return f, nil
}
