package core

import (
	"testing"
	"time"

	"manetsim/internal/phy"
)

// smallCfg returns a reduced-scale config for fast tests: 1100 packets in
// batches of 100 (11 batches, 1 warm-up), same structure as the paper.
func smallCfg(scn *Scenario, tspec TransportSpec) Config {
	return Config{
		Scenario:     scn,
		Bandwidth:    phy.Rate2Mbps,
		Transport:    tspec,
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
		MaxSimTime:   time.Hour,
	}
}

func TestRunVegasOverTwoHopChain(t *testing.T) {
	res, err := Run(smallCfg(Chain(2), TransportSpec{Name: "vegas"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("run truncated: delivered %d in %v", res.Delivered, res.SimTime)
	}
	if res.Delivered < 1100 {
		t.Errorf("delivered = %d, want >= 1100", res.Delivered)
	}
	if len(res.Batches) != 10 {
		t.Errorf("measured batches = %d, want 10", len(res.Batches))
	}
	// 2-hop chain at 2 Mbit/s: alternate-hop forwarding halves the
	// single-hop ~1.5 Mbit/s; expect goodput in the several-hundred-kbit
	// range.
	g := res.AggGoodput.Mean
	if g < 200e3 || g > 1.2e6 {
		t.Errorf("goodput = %.0f bit/s, outside plausible range for 2 hops", g)
	}
	if res.AvgWindow.Mean <= 0 {
		t.Errorf("avg window = %v, want > 0", res.AvgWindow.Mean)
	}
}

func TestRunNewRenoOverSevenHopChain(t *testing.T) {
	res, err := Run(smallCfg(Chain(7), TransportSpec{Name: "newreno"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("run truncated: delivered %d in %v", res.Delivered, res.SimTime)
	}
	// Hidden terminals on a 7-hop chain must cause some transport
	// retransmissions for NewReno.
	if res.Rtx.Mean == 0 {
		t.Log("note: zero NewReno retransmissions on 7 hops (unusual but possible at tiny scale)")
	}
	if res.AggGoodput.Mean < 50e3 {
		t.Errorf("goodput = %.0f bit/s, implausibly low", res.AggGoodput.Mean)
	}
}

func TestRunPacedUDPOverChain(t *testing.T) {
	// 40ms gap is safely above t_opt for a 4-hop chain (~30ms zero-
	// contention pipeline), so nearly all offered load gets through.
	cfg := smallCfg(Chain(4), TransportSpec{Name: "pacedudp", UDPGap: 40 * time.Millisecond})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("run truncated: delivered %d in %v", res.Delivered, res.SimTime)
	}
	// CBR at 1460B/40ms = 292 kbit/s offered; goodput close to that.
	g := res.AggGoodput.Mean
	if g < 250e3 || g > 310e3 {
		t.Errorf("UDP goodput = %.0f bit/s, want near the 292 kbit/s offered load", g)
	}
	if res.Rtx.Mean != 0 {
		t.Errorf("UDP reports retransmissions: %v", res.Rtx.Mean)
	}
}

// TestRunPacedUDPOverdriveLosesPackets pins the paper's Figure 10 left
// side: pacing faster than t_opt causes heavy hidden-terminal loss.
func TestRunPacedUDPOverdriveLosesPackets(t *testing.T) {
	fast := smallCfg(Chain(4), TransportSpec{Name: "pacedudp", UDPGap: 25 * time.Millisecond})
	slow := smallCfg(Chain(4), TransportSpec{Name: "pacedudp", UDPGap: 40 * time.Millisecond})
	rf, err := Run(fast)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Run(slow)
	if err != nil {
		t.Fatal(err)
	}
	// The overdriven source must lose a substantial fraction: goodput per
	// offered packet collapses below the conservative source's.
	fastEff := rf.AggGoodput.Mean * 25
	slowEff := rs.AggGoodput.Mean * 40
	if fastEff >= slowEff {
		t.Errorf("overdriven UDP efficiency %.0f >= conservative %.0f; Figure 10 cliff missing", fastEff, slowEff)
	}
}

func TestRunGridSixFlows(t *testing.T) {
	cfg := smallCfg(Grid(), TransportSpec{Name: "vegas"})
	cfg.TotalPackets = 2200
	cfg.BatchPackets = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("run truncated: delivered %d in %v", res.Delivered, res.SimTime)
	}
	if len(res.Flows) != 6 {
		t.Fatalf("flows = %d, want 6", len(res.Flows))
	}
	if res.Jain.Mean <= 0 || res.Jain.Mean > 1 {
		t.Errorf("Jain index = %v, out of range", res.Jain.Mean)
	}
	if len(res.PerFlowGood) != 6 {
		t.Errorf("per-flow estimates = %d, want 6", len(res.PerFlowGood))
	}
}

func TestRunRandomTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("random topology run is slow")
	}
	cfg := smallCfg(Random(), TransportSpec{Name: "vegas"})
	cfg.TotalPackets = 1100
	cfg.BatchPackets = 100
	cfg.MaxSimTime = 10 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Flows) != 10 {
		t.Fatalf("flows = %d, want 10", len(res.Flows))
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered on the random topology")
	}
}

func TestRunStaticRoutingAblation(t *testing.T) {
	cfg := smallCfg(Chain(4).WithRouting(RoutingStatic), TransportSpec{Name: "vegas"})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated {
		t.Fatalf("run truncated")
	}
	if res.FalseRouteFailures != 0 {
		t.Errorf("static routing reported %d false route failures", res.FalseRouteFailures)
	}
}

func TestRunDeterministicAcrossSeeds(t *testing.T) {
	cfg := smallCfg(Chain(3), TransportSpec{Name: "vegas"})
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AggGoodput.Mean != b.AggGoodput.Mean || a.SimTime != b.SimTime {
		t.Errorf("same seed diverged: %v/%v vs %v/%v",
			a.AggGoodput.Mean, a.SimTime, b.AggGoodput.Mean, b.SimTime)
	}
	cfg.Seed = 2
	c, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.AggGoodput.Mean == a.AggGoodput.Mean && c.SimTime == a.SimTime {
		t.Error("different seeds produced identical results")
	}
}

func TestRunVegasBeatsNewRenoOnChain(t *testing.T) {
	// The paper's headline (Figure 6): Vegas outperforms NewReno on
	// multihop chains. Test at 8 hops where the gap peaks (~75%).
	cfgV := smallCfg(Chain(8), TransportSpec{Name: "vegas"})
	cfgN := smallCfg(Chain(8), TransportSpec{Name: "newreno"})
	v, err := Run(cfgV)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Run(cfgN)
	if err != nil {
		t.Fatal(err)
	}
	if v.Truncated || n.Truncated {
		t.Fatalf("truncated runs: vegas=%v newreno=%v", v.Truncated, n.Truncated)
	}
	if v.AggGoodput.Mean <= n.AggGoodput.Mean {
		t.Errorf("Vegas goodput %.0f <= NewReno %.0f on 8-hop chain; paper's headline violated",
			v.AggGoodput.Mean, n.AggGoodput.Mean)
	}
	if v.AvgWindow.Mean >= n.AvgWindow.Mean {
		t.Errorf("Vegas window %.1f >= NewReno %.1f; Vegas must be smaller (Figure 8)",
			v.AvgWindow.Mean, n.AvgWindow.Mean)
	}
}

func TestRunConfigValidation(t *testing.T) {
	if _, err := Run(Config{Scenario: Chain(0), Transport: TransportSpec{Name: "vegas"}}); err == nil {
		t.Error("zero-hop chain accepted")
	}
	if _, err := Run(Config{Transport: TransportSpec{Name: "vegas"}}); err == nil {
		t.Error("nil scenario accepted")
	}
	cfg := smallCfg(Chain(2), TransportSpec{Name: "pacedudp"})
	if _, err := Run(cfg); err == nil {
		t.Error("paced UDP without gap accepted")
	}
	bad := smallCfg(Chain(2).WithFlows(Flow{Src: 0, Dst: 99}), TransportSpec{Name: "vegas"})
	if _, err := Run(bad); err == nil {
		t.Error("out-of-range flow accepted")
	}
}
