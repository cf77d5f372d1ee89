package exp

import (
	"context"
	"fmt"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

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
	variants := []struct {
		name string
		t    core.TransportSpec
	}{
		{"Reno", core.TransportSpec{Protocol: core.ProtoReno}},
		{"Westwood+", core.TransportSpec{Name: "westwood"}},
	}
	lossAxis := []float64{0, 0.01, 0.02, 0.05}
	for _, v := range variants {
		var cfgs []core.Config
		for _, p := range lossAxis {
			cfg := chainCfg(7, phy.Rate2Mbps, v.t)
			if p > 0 {
				cfg.LinkModel = core.UniformLossModel(p)
			}
			cfgs = append(cfgs, cfg)
		}
		results, err := c.RunAll(context.Background(), cfgs)
		if err != nil {
			return nil, err
		}
		s := Series{Name: v.name}
		for i, res := range results {
			s.Points = append(s.Points, Point{X: fmt.Sprintf("%g", lossAxis[i]*100), Y: kbit(res.AggGoodput.Mean)})
		}
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		"loss is injected per frame copy at the PHY (model: uniform), below the MAC's ARQ — TCP only sees the residue the retry limit lets through")
	return f, nil
}
