package manetsim

import (
	"context"
	"testing"
	"time"
)

func TestPublicAPIRun(t *testing.T) {
	res, err := RunConfig(context.Background(), Config{
		Scenario:     Chain(3),
		Bandwidth:    Rate2Mbps,
		Transport:    TransportSpec{Protocol: Vegas},
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < 1100 {
		t.Errorf("delivered = %d, want >= 1100", res.Delivered)
	}
	if res.AggGoodput.Mean <= 0 {
		t.Error("zero goodput through the public API")
	}
}

func TestPublicAPICustomScenario(t *testing.T) {
	// A topology the paper never evaluated: a 3-node vee with two flows of
	// different transports converging on one sink, the second starting
	// late.
	scn := NewScenario("vee")
	left := scn.AddNode(0, 0)
	right := scn.AddNode(400, 0)
	sink := scn.AddNode(200, 100)
	scn.Add(Flow{Src: left, Dst: sink, Transport: TransportSpec{Protocol: Vegas}})
	scn.Add(Flow{Src: right, Dst: sink, Transport: TransportSpec{Protocol: NewReno}, Start: 2 * time.Second})
	res, err := RunConfig(context.Background(), Config{
		Scenario:     scn,
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
		MaxSimTime:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerFlowGood) != 2 {
		t.Fatalf("per-flow results = %d, want 2", len(res.PerFlowGood))
	}
	for i, est := range res.PerFlowGood {
		if est.Mean <= 0 {
			t.Errorf("flow %d: zero goodput", i)
		}
	}
}

func TestPublicAPITable2(t *testing.T) {
	cases := []struct {
		rate   Rate
		wantMS int64
	}{
		{Rate2Mbps, 29},
		{Rate5_5Mbps, 12},
		{Rate11Mbps, 8},
	}
	for _, c := range cases {
		got := FourHopPropagationDelay(c.rate).Round(time.Millisecond).Milliseconds()
		if got != c.wantMS {
			t.Errorf("FourHopPropagationDelay(%v) = %d ms, want %d", c.rate, got, c.wantMS)
		}
	}
}

func TestPublicAPIExchangeTime(t *testing.T) {
	e2 := ExchangeTime(Rate2Mbps, 1500)
	e11 := ExchangeTime(Rate11Mbps, 1500)
	if e2 <= e11 {
		t.Errorf("exchange time at 2M (%v) must exceed 11M (%v)", e2, e11)
	}
	if e2 != FourHopPropagationDelay(Rate2Mbps)/4 {
		t.Errorf("ExchangeTime inconsistent with FourHopPropagationDelay")
	}
}

func TestPublicAPITopologies(t *testing.T) {
	for name, scn := range map[string]*Scenario{
		"chain":  Chain(2),
		"grid":   Grid(),
		"random": Random(),
	} {
		res, err := RunConfig(context.Background(), Config{
			Scenario:     scn,
			Transport:    TransportSpec{Protocol: NewReno},
			Seed:         3,
			TotalPackets: 550,
			BatchPackets: 50,
			MaxSimTime:   30 * time.Minute,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Delivered == 0 {
			t.Errorf("%s: nothing delivered", name)
		}
	}
}

func TestPublicAPIObserver(t *testing.T) {
	var batches, windows int
	var lastDelivered int64
	res, err := RunConfig(context.Background(), Config{
		Scenario:     Chain(3),
		Transport:    TransportSpec{Protocol: Vegas},
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
		Observer: &Observer{
			Batch:        func(b Batch) { batches++ },
			WindowSample: func(flow int, w float64) { windows++ },
			Progress:     func(delivered, total int64, _ time.Duration) { lastDelivered = delivered },
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if batches < 11 {
		t.Errorf("observed %d batch closes, want >= 11", batches)
	}
	if windows != batches {
		t.Errorf("window samples = %d, want one per batch (%d) for the single flow", windows, batches)
	}
	if lastDelivered < 1100 {
		t.Errorf("last progress reported %d delivered, want >= 1100", lastDelivered)
	}
	if res.Delivered < 1100 {
		t.Errorf("delivered = %d", res.Delivered)
	}
}

func TestPublicAPIObserverDoesNotChangeResults(t *testing.T) {
	run := func(obs *Observer) *Result {
		t.Helper()
		res, err := RunConfig(context.Background(), Config{
			Scenario:     Chain(4),
			Transport:    TransportSpec{Protocol: NewReno},
			Seed:         5,
			TotalPackets: 1100,
			BatchPackets: 100,
			Observer:     obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	observed := run(&Observer{
		Retransmit:   func(int) {},
		RouteFailure: func(NodeID, bool) {},
	})
	if plain.AggGoodput.Mean != observed.AggGoodput.Mean || plain.SimTime != observed.SimTime {
		t.Errorf("observer changed the simulation: %v/%v vs %v/%v",
			plain.AggGoodput.Mean, plain.SimTime, observed.AggGoodput.Mean, observed.SimTime)
	}
}

func TestPublicAPITransportName(t *testing.T) {
	cases := []struct {
		spec TransportSpec
		want string
	}{
		{TransportSpec{Protocol: Vegas}, "Vegas"},
		{TransportSpec{Protocol: Vegas, Alpha: 3}, "Vegas(α=3)"},
		{TransportSpec{Protocol: NewReno, AckThinning: true}, "NewReno+Thin"},
		{TransportSpec{Protocol: NewReno, MaxWindow: 3}, "NewReno(MaxWin=3)"},
		{TransportSpec{Protocol: PacedUDP}, "PacedUDP"},
	}
	for _, c := range cases {
		if got := c.spec.Label(); got != c.want {
			t.Errorf("Name() = %q, want %q", got, c.want)
		}
	}
}
