package core

import (
	"testing"
	"time"

	"manetsim/internal/phy"
)

func TestRunRenoAndTahoeVariants(t *testing.T) {
	for _, proto := range []Protocol{ProtoReno, ProtoTahoe} {
		res, err := Run(smallCfg(Chain(3), TransportSpec{Protocol: proto}))
		if err != nil {
			t.Fatalf("%v: %v", proto, err)
		}
		if res.Truncated || res.Delivered < 1100 {
			t.Errorf("%v: delivered %d (truncated=%v)", proto, res.Delivered, res.Truncated)
		}
		if res.AggGoodput.Mean <= 0 {
			t.Errorf("%v: zero goodput", proto)
		}
	}
}

func TestRunDelayedAckSink(t *testing.T) {
	plain, err := Run(smallCfg(Chain(2), TransportSpec{Protocol: ProtoNewReno}))
	if err != nil {
		t.Fatal(err)
	}
	delack, err := Run(smallCfg(Chain(2), TransportSpec{Protocol: ProtoNewReno, DelayedAck: true}))
	if err != nil {
		t.Fatal(err)
	}
	if delack.Delivered < 1100 {
		t.Fatalf("delayed-ack run starved: %d", delack.Delivered)
	}
	// Delayed ACKs halve the reverse traffic; goodput must not collapse.
	if delack.AggGoodput.Mean < plain.AggGoodput.Mean/2 {
		t.Errorf("delayed-ack goodput %.0f collapsed vs plain %.0f",
			delack.AggGoodput.Mean, plain.AggGoodput.Mean)
	}
}

func TestRunRejectsThinningPlusDelack(t *testing.T) {
	_, err := Run(smallCfg(Chain(2), TransportSpec{Protocol: ProtoNewReno, DelayedAck: true, AckThinning: true}))
	if err == nil {
		t.Error("mutually exclusive ACK policies accepted")
	}
}

func TestRunPerFlowTransportMix(t *testing.T) {
	v := TransportSpec{Protocol: ProtoVegas, Alpha: 2}
	n := TransportSpec{Protocol: ProtoNewReno}
	scn := Grid()
	for i, tspec := range []TransportSpec{v, v, v, n, n, n} {
		scn.Flows[i].Transport = tspec
	}
	cfg := smallCfg(scn, TransportSpec{Protocol: ProtoVegas})
	cfg.TotalPackets = 2200
	cfg.BatchPackets = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFlowGood) != 6 {
		t.Fatalf("per-flow results = %d, want 6", len(res.PerFlowGood))
	}
	if res.Delivered < 2200 {
		t.Errorf("mixed run delivered %d, want 2200", res.Delivered)
	}
}

func TestRunPartialPerFlowTransportInheritsDefault(t *testing.T) {
	// Flows without their own TransportSpec inherit Config.Transport;
	// a run whose flows mix explicit and inherited transports must work.
	scn := Grid()
	scn.Flows[0].Transport = TransportSpec{Protocol: ProtoNewReno}
	cfg := smallCfg(scn, TransportSpec{Protocol: ProtoVegas})
	cfg.TotalPackets = 2200
	cfg.BatchPackets = 200
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < 2200 {
		t.Errorf("mixed-inheritance run delivered %d, want 2200", res.Delivered)
	}
}

func TestRunDelayStatistics(t *testing.T) {
	res, err := Run(smallCfg(Chain(4), TransportSpec{Protocol: ProtoVegas}))
	if err != nil {
		t.Fatal(err)
	}
	d := res.Delay
	if d.N == 0 {
		t.Fatal("no delay samples collected")
	}
	// A 4-hop exchange takes >= 4 * 7.3ms; anything below is impossible,
	// and the p95 must dominate the median.
	if d.Mean < 25*time.Millisecond {
		t.Errorf("mean delay %v below the physical floor", d.Mean)
	}
	if d.P95 < d.P50 {
		t.Errorf("p95 %v < p50 %v", d.P95, d.P50)
	}
	if d.Max < d.P95 {
		t.Errorf("max %v < p95 %v", d.Max, d.P95)
	}
}

func TestRunUDPDelayStatistics(t *testing.T) {
	cfg := smallCfg(Chain(4), TransportSpec{Protocol: ProtoPacedUDP, UDPGap: 40 * time.Millisecond})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay.N == 0 {
		t.Fatal("no UDP delay samples")
	}
	// Paced UDP at a conservative rate has no queueing: delay close to
	// the 4-hop pipeline time (~30ms), certainly below 100ms.
	if res.Delay.P50 > 100*time.Millisecond {
		t.Errorf("UDP median delay %v, want near the uncontended pipeline time", res.Delay.P50)
	}
}

// TestRunLongChainEstablishesRoute guards the AODV TTL regression: a
// 64-hop flood must reach the destination and traffic must flow.
func TestRunLongChainEstablishesRoute(t *testing.T) {
	if testing.Short() {
		t.Skip("64-hop run is slow")
	}
	cfg := smallCfg(Chain(64), TransportSpec{Protocol: ProtoVegas})
	cfg.TotalPackets = 550
	cfg.BatchPackets = 50
	cfg.MaxSimTime = 30 * time.Minute
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < 550 {
		t.Errorf("64-hop chain delivered %d packets (truncated=%v); AODV flood TTL regression?",
			res.Delivered, res.Truncated)
	}
}

func TestProtocolPredicates(t *testing.T) {
	// Every legacy Protocol constant resolves through the registry; the
	// window-based ones carry a strategy factory, paced UDP a raw
	// endpoint builder.
	for _, p := range []Protocol{ProtoVegas, ProtoNewReno, ProtoReno, ProtoTahoe} {
		tr, err := resolveTransport(TransportSpec{Protocol: p})
		if err != nil {
			t.Fatalf("%v does not resolve: %v", p, err)
		}
		if tr.newCC == nil {
			t.Errorf("%v should be a window-based (engine) transport", p)
		}
	}
	udp, err := resolveTransport(TransportSpec{Protocol: ProtoPacedUDP})
	if err != nil {
		t.Fatal(err)
	}
	if udp.newCC != nil || udp.build == nil {
		t.Error("paced UDP should be a raw-endpoint transport, not an engine one")
	}
	if ProtoReno.String() != "Reno" || ProtoTahoe.String() != "Tahoe" {
		t.Error("protocol names wrong")
	}
	// The constants are name aliases: one agrees with its own entry's
	// names and aliases, conflicts with any other, and labels like it.
	if tr, err := resolveTransport(TransportSpec{Name: "UDP", Protocol: ProtoPacedUDP}); err != nil || tr != udp {
		t.Errorf("alias of the constant's own entry resolved to %v, %v", tr, err)
	}
	_, err = resolveTransport(TransportSpec{Name: "udp", Protocol: ProtoVegas})
	if want := `core: transport Name "udp" conflicts with Protocol Vegas; set one of them`; err == nil || err.Error() != want {
		t.Errorf("conflict error %v, want %s", err, want)
	}
	if got := (TransportSpec{Name: "VEGAS", Alpha: 3}).Label(); got != "Vegas(α=3)" {
		t.Errorf("Label by name = %q, want the Vegas α form", got)
	}
}

func TestBandwidthMonotoneGoodput(t *testing.T) {
	// More bandwidth must not reduce goodput (sub-linear growth is the
	// paper's point, but monotonicity should hold).
	var prev float64
	for _, r := range []phy.Rate{phy.Rate2Mbps, phy.Rate5_5Mbps, phy.Rate11Mbps} {
		cfg := smallCfg(Chain(7), TransportSpec{Protocol: ProtoVegas})
		cfg.Bandwidth = r
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.AggGoodput.Mean < prev {
			t.Errorf("goodput decreased at %v: %.0f < %.0f", r, res.AggGoodput.Mean, prev)
		}
		prev = res.AggGoodput.Mean
	}
}
