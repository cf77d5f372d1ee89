package exp

import (
	"context"
	"fmt"
	"time"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// Transports is the transport-regression experiment backing the golden
// digests: every window-based variant the simulator ships plus the paced
// UDP reference, on the 4- and 7-hop chains at 2 Mbit/s. Unlike the
// figure experiments it fixes the UDP pacing gap (36 ms, the paper's
// 7-hop optimum at 2 Mbit/s) instead of sweeping for it, so the digest
// covers exactly one deterministic run per variant and hop count.
func Transports(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "transports", Title: "h-hop chain, 2 Mbit/s: every transport variant",
		XLabel: "hops", YLabel: "goodput [kbit/s]",
	}
	variants := []struct {
		name string
		t    core.TransportSpec
	}{
		{"Tahoe", core.TransportSpec{Protocol: core.ProtoTahoe}},
		{"Reno", core.TransportSpec{Protocol: core.ProtoReno}},
		{"NewReno", core.TransportSpec{Protocol: core.ProtoNewReno}},
		{"Vegas", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2}},
		{"Paced UDP", core.TransportSpec{Protocol: core.ProtoPacedUDP, UDPGap: 36 * time.Millisecond}},
	}
	hopsAxis := []int{4, 7}
	for _, v := range variants {
		var cfgs []core.Config
		for _, hops := range hopsAxis {
			cfgs = append(cfgs, chainCfg(hops, phy.Rate2Mbps, v.t))
		}
		results, err := c.RunAll(context.Background(), cfgs)
		if err != nil {
			return nil, err
		}
		s := Series{Name: v.name}
		for i, res := range results {
			s.Points = append(s.Points, Point{X: fmt.Sprint(hopsAxis[i]), Y: kbit(res.AggGoodput.Mean)})
			f.Notes = append(f.Notes, fmt.Sprintf("%s h=%d: rtx=%.4f win=%.2f",
				v.name, hopsAxis[i], res.Rtx.Mean, res.AvgWindow.Mean))
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}

// CCExtensions is the golden-digest experiment for the registry-shipped
// congestion-control extensions — TCP Westwood+ and the rate-based
// adaptive-pacing sender — next to the paper's two main variants for
// context, on the 4- and 7-hop chains at 2 Mbit/s. Selection goes through
// TransportSpec.Name, so the digest also pins name-based registry
// resolution end to end.
func CCExtensions(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "ccextensions", Title: "h-hop chain, 2 Mbit/s: Westwood+ and adaptive pacing vs the paper's variants",
		XLabel: "hops", YLabel: "goodput [kbit/s]",
	}
	variants := []core.TransportSpec{
		{Name: "newreno"},
		{Name: "vegas", Alpha: 2},
		{Name: "westwood"},
		{Name: "pacing"},
	}
	hopsAxis := []int{4, 7}
	for _, t := range variants {
		var cfgs []core.Config
		for _, hops := range hopsAxis {
			cfgs = append(cfgs, chainCfg(hops, phy.Rate2Mbps, t))
		}
		results, err := c.RunAll(context.Background(), cfgs)
		if err != nil {
			return nil, err
		}
		s := Series{Name: t.Label()}
		for i, res := range results {
			s.Points = append(s.Points, Point{X: fmt.Sprint(hopsAxis[i]), Y: kbit(res.AggGoodput.Mean)})
			f.Notes = append(f.Notes, fmt.Sprintf("%s h=%d: rtx=%.4f win=%.2f",
				t.Label(), hopsAxis[i], res.Rtx.Mean, res.AvgWindow.Mean))
		}
		f.Series = append(f.Series, s)
	}
	return f, nil
}
