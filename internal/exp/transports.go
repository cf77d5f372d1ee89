package exp

import (
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
	variants := []variant{
		{"Tahoe", core.TransportSpec{Name: "tahoe"}},
		{"Reno", core.TransportSpec{Name: "reno"}},
		{"NewReno", core.TransportSpec{Name: "newreno"}},
		{"Vegas", core.TransportSpec{Name: "vegas", Alpha: 2}},
		{"Paced UDP", core.TransportSpec{Name: "pacedudp", UDPGap: 36 * time.Millisecond}},
	}
	hopsAxis := []int{4, 7}
	results, err := runGrid(c, len(variants), len(hopsAxis), func(s, x int) core.Config {
		return chainCfg(hopsAxis[x], phy.Rate2Mbps, variants[s].t)
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(variants), func(s, x int, r *core.Result) Point {
		f.Notes = append(f.Notes, fmt.Sprintf("%s h=%d: rtx=%.4f win=%.2f",
			variants[s].name, hopsAxis[x], r.Rtx.Mean, r.AvgWindow.Mean))
		return Point{X: fmt.Sprint(hopsAxis[x]), Y: kbit(r.AggGoodput.Mean)}
	})
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
	results, err := runGrid(c, len(variants), len(hopsAxis), func(s, x int) core.Config {
		return chainCfg(hopsAxis[x], phy.Rate2Mbps, variants[s])
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, func(s int) string { return variants[s].Label() }, func(s, x int, r *core.Result) Point {
		f.Notes = append(f.Notes, fmt.Sprintf("%s h=%d: rtx=%.4f win=%.2f",
			variants[s].Label(), hopsAxis[x], r.Rtx.Mean, r.AvgWindow.Mean))
		return Point{X: fmt.Sprint(hopsAxis[x]), Y: kbit(r.AggGoodput.Mean)}
	})
	return f, nil
}
