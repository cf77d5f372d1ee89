package core

import (
	"testing"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/sim"
)

// TestStackEnergyAccounting: a stack whose radio never left idle burns
// exactly the idle draw over the elapsed time, and a sender's stack burns
// more than that.
func TestStackEnergyAccounting(t *testing.T) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(1))
	quiet := newStack(sched, ch.Radio(0), mac.Config{DataRate: phy.Rate2Mbps})
	elapsed := 3 * time.Second
	if got, want := quiet.energyJoules(elapsed), 0.74*elapsed.Seconds(); got != want {
		t.Errorf("silent stack energy = %v J, want %v J", got, want)
	}

	w := NewWorld()
	res, err := w.Run(smallCfg(Chain(1), TransportSpec{Protocol: ProtoNewReno}))
	if err != nil {
		t.Fatal(err)
	}
	idle := 0.74 * res.SimTime.Seconds()
	if got := w.s.stacks[0].energyJoules(res.SimTime); got <= idle {
		t.Errorf("sender stack energy %.3f J <= idle-only %.3f J", got, idle)
	}
	var total float64
	for _, st := range w.s.stacks {
		total += st.energyJoules(res.SimTime)
	}
	if res.Energy.TotalJoules != total {
		t.Errorf("Result energy %v J, want the stacks' sum %v J", res.Energy.TotalJoules, total)
	}
}

// TestDeliverLocalSeparatesFlows runs two TCP flows between the same two
// nodes: demultiplexing by flow index must keep them apart, so both
// deliver and each batch credits every packet to the flow whose sink took
// it.
func TestDeliverLocalSeparatesFlows(t *testing.T) {
	cfg := smallCfg(Chain(1).WithFlows(Flow{Src: 0, Dst: 1}, Flow{Src: 0, Dst: 1}),
		TransportSpec{Protocol: ProtoNewReno})
	perFlow := make([]int64, 2)
	cfg.Observer = &Observer{Batch: func(b Batch) {
		for fi, n := range b.PerFlowPackets {
			perFlow[fi] += n
		}
	}}
	w := NewWorld()
	if _, err := w.Run(cfg); err != nil {
		t.Fatal(err)
	}
	for fi := range perFlow {
		got := w.s.slots[fi].sink.Stats().GoodputPackets
		if got == 0 {
			t.Errorf("flow %d starved", fi)
		}
		if got != perFlow[fi] {
			t.Errorf("flow %d: sink goodput %d, batches credit %d", fi, got, perFlow[fi])
		}
	}
}

// TestTCPFlowOverStack: a TCP flow over a two-hop chain delivers, and
// the goodput onDelivery counted equals what the sink took in order.
func TestTCPFlowOverStack(t *testing.T) {
	w := NewWorld()
	res, err := w.Run(smallCfg(Chain(2), TransportSpec{Protocol: ProtoNewReno}))
	if err != nil {
		t.Fatal(err)
	}
	good := w.s.slots[0].sink.Stats().GoodputPackets
	if good < 100 {
		t.Fatalf("sink goodput %d packets, want >=100", good)
	}
	if res.Delivered != good {
		t.Errorf("onDelivery counted %d, sink goodput %d", res.Delivered, good)
	}
}

// TestUDPFlowOverStack: a paced-UDP flow at 20 packets/s over a two-hop
// chain delivers about 20 packets in its first second, and onDelivery
// counts exactly what the sink received.
func TestUDPFlowOverStack(t *testing.T) {
	cfg := smallCfg(Chain(2), TransportSpec{Protocol: ProtoPacedUDP, UDPGap: 50 * time.Millisecond})
	cfg.MaxSimTime = time.Second
	w := NewWorld()
	res, err := w.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := w.s.slots[0].usink.Received
	if got < 15 || got > 21 {
		t.Errorf("received %d packets at 20/s over 1s, want ~19-20", got)
	}
	if res.Delivered != got {
		t.Errorf("onDelivery counted %d, sink received %d", res.Delivered, got)
	}
}
