package exp

import (
	"fmt"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// TCPVariants is an extension experiment in the spirit of the Xu & Saadawi
// study the paper's related work discusses: all four TCP variants (Tahoe,
// Reno, NewReno, Vegas) over the chain at 2 Mbit/s. Expectation from the
// literature (and the paper's §2): Vegas ahead, Tahoe trailing.
func TCPVariants(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "tcpvariants", Title: "h-hop chain, 2 Mbit/s: TCP variant comparison (Tahoe/Reno/NewReno/Vegas)",
		XLabel: "hops", YLabel: "goodput [kbit/s]",
	}
	variants := []variant{
		{"Tahoe", core.TransportSpec{Protocol: core.ProtoTahoe}},
		{"Reno", core.TransportSpec{Protocol: core.ProtoReno}},
		{"NewReno", core.TransportSpec{Protocol: core.ProtoNewReno}},
		{"Vegas", core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2}},
	}
	hopsAxis := []int{2, 4, 7} // Xu & Saadawi evaluated chains up to 7 hops
	results, err := runGrid(c, len(variants), len(hopsAxis), func(s, x int) core.Config {
		return chainCfg(hopsAxis[x], phy.Rate2Mbps, variants[s].t)
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(variants), func(_, x int, r *core.Result) Point {
		return Point{X: fmt.Sprint(hopsAxis[x]), Y: kbit(r.AggGoodput.Mean)}
	})
	return f, nil
}

// Coexist is an extension experiment enabled by per-flow transports:
// three Vegas and three NewReno flows share the grid. The literature
// predicts loss-based NewReno crowds out delay-based Vegas; the per-group
// goodput and fairness quantify it here.
func Coexist(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "coexist", Title: "grid: 3 Vegas flows vs 3 NewReno flows sharing the medium",
		XLabel: "bandwidth [Mbit/s]", YLabel: "per-group goodput [kbit/s]",
	}
	vegas := core.TransportSpec{Protocol: core.ProtoVegas, Alpha: 2}
	newreno := core.TransportSpec{Protocol: core.ProtoNewReno}
	// Alternate protocols within each geometry class (FTP1-3 horizontal,
	// FTP4-6 vertical) so path length does not confound the comparison.
	perFlow := []core.TransportSpec{
		vegas, newreno, vegas,
		newreno, vegas, newreno,
	}
	grid := core.Grid()
	for i := range grid.Flows {
		grid.Flows[i].Transport = perFlow[i]
	}
	isVegas := []bool{true, false, true, false, true, false}
	var vSeries, nSeries Series
	vSeries.Name = "Vegas group"
	nSeries.Name = "NewReno group"
	results, err := runGrid(c, 1, len(rates), func(_, x int) core.Config {
		// vegas is the base spec; every flow overrides it.
		return core.Config{Scenario: grid, Bandwidth: rates[x], Transport: vegas}
	})
	if err != nil {
		return nil, err
	}
	for i, res := range results[0] {
		r := rates[i]
		var vSum, nSum float64
		for fi, est := range res.PerFlowGood {
			if isVegas[fi] {
				vSum += est.Mean
			} else {
				nSum += est.Mean
			}
		}
		vSeries.Points = append(vSeries.Points, Point{X: rateLabel(r), Y: kbit(vSum)})
		nSeries.Points = append(nSeries.Points, Point{X: rateLabel(r), Y: kbit(nSum)})
		f.Notes = append(f.Notes, fmt.Sprintf("%s Mbit/s: Jain over all 6 flows = %.2f", rateLabel(r), res.Jain.Mean))
	}
	f.Series = []Series{vSeries, nSeries}
	return f, nil
}

// OptWindow is an extension experiment validating the claim (Fu et al.,
// echoed by the paper) that the optimal TCP window over an h-hop chain is
// far below the nominal bandwidth-delay product, around h/4: NewReno with
// an artificial window bound swept from 1 to 16 on the 8-hop chain. The
// goodput peak should sit near 2-3 packets, where the paper's MaxWin=3
// (for 7 hops) and Vegas' self-selected ~3-4 packet window land.
func OptWindow(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "optwindow", Title: "8-hop chain, 2 Mbit/s: NewReno goodput vs artificial window bound",
		XLabel: "MaxWindow [packets]", YLabel: "goodput [kbit/s]",
	}
	bounds := []int{1, 2, 3, 4, 6, 8, 12, 16}
	results, err := runGrid(c, 1, len(bounds), func(_, x int) core.Config {
		return chainCfg(8, phy.Rate2Mbps, core.TransportSpec{Protocol: core.ProtoNewReno, MaxWindow: bounds[x]})
	})
	if err != nil {
		return nil, err
	}
	s := Series{Name: "NewReno MaxWin"}
	best, bestW := -1.0, 0
	for i, res := range results[0] {
		g := kbit(res.AggGoodput.Mean)
		s.Points = append(s.Points, Point{X: fmt.Sprint(bounds[i]), Y: g})
		if g > best {
			best, bestW = g, bounds[i]
		}
	}
	f.Series = []Series{s}
	f.Notes = append(f.Notes, fmt.Sprintf("goodput peaks at MaxWindow=%d (paper: 3 for the 7-hop chain; h/4=2 for 8 hops)", bestW))
	return f, nil
}

// Latency is an extension experiment: end-to-end packet delay of the TCP
// variants on the 7-hop chain (mean and p95), quantifying how NewReno's
// big window inflates queueing delay.
func Latency(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "latency", Title: "7-hop chain, 2 Mbit/s: end-to-end packet delay",
		XLabel: "variant", YLabel: "delay [ms]",
	}
	mean := Series{Name: "mean"}
	p95 := Series{Name: "p95"}
	results, err := runGrid(c, len(sevenHopTCP), 1, func(s, _ int) core.Config {
		return chainCfg(7, phy.Rate2Mbps, sevenHopTCP[s].t)
	})
	if err != nil {
		return nil, err
	}
	for si, row := range results {
		name, res := sevenHopTCP[si].name, row[0]
		mean.Points = append(mean.Points, Point{X: name, Y: float64(res.Delay.Mean.Milliseconds())})
		p95.Points = append(p95.Points, Point{X: name, Y: float64(res.Delay.P95.Milliseconds())})
	}
	f.Series = []Series{mean, p95}
	return f, nil
}
