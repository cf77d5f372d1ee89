package node

import (
	"testing"
	"time"

	"manetsim/internal/aodv"
	"manetsim/internal/geo"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/tcp"
	"manetsim/internal/udp"
)

// buildStack wires nodes with static routing over a chain.
func buildStack(t *testing.T, hops int) (*sim.Scheduler, []*Node, *pkt.Pool) {
	t.Helper()
	sched := sim.NewScheduler(1)
	pts := geo.Chain(hops)
	ch := phy.NewChannel(sched, pts)
	uids := &pkt.Pool{}
	nodes := make([]*Node, len(pts))
	for i := range pts {
		nodes[i] = New(sched, ch.Radio(pkt.NodeID(i)), mac.Config{DataRate: phy.Rate2Mbps})
	}
	adj := geo.Neighbors(pts, phy.TxRange)
	for i := range pts {
		n := nodes[i]
		n.SetRouter(aodv.NewStatic(pkt.NodeID(i), n.MAC, adj, n.Deliver))
	}
	return sched, nodes, uids
}

func TestTCPFlowOverStack(t *testing.T) {
	sched, nodes, uids := buildStack(t, 2)
	src, dst := nodes[0], nodes[2]
	snd := tcp.NewEngine(sched, tcp.Config{}, 0, 0, 2, uids, src.Output(), tcp.NewNewRenoCC())
	sink := tcp.NewSink(sched, 0, 2, 0, tcp.AckEveryPacket, uids, dst.Output())
	src.AttachTCPSender(0, snd)
	dst.AttachTCPSink(0, sink)
	var delivered int64
	dst.OnFlowDelivery = func(flow int, n int64) {
		if flow != 0 {
			t.Errorf("delivery for flow %d, want 0", flow)
		}
		delivered += n
	}
	sched.At(0, snd.Start)
	sched.RunUntil(2 * time.Second)
	if delivered < 100 {
		t.Fatalf("delivered %d packets over 2s, want >=100", delivered)
	}
	if got := sink.Stats().GoodputPackets; got != delivered {
		t.Errorf("hook total %d != sink goodput %d", delivered, got)
	}
}

func TestUDPFlowOverStack(t *testing.T) {
	sched, nodes, uids := buildStack(t, 2)
	sink := udp.NewSink()
	nodes[2].AttachUDPSink(3, sink)
	var delivered int64
	nodes[2].OnFlowDelivery = func(flow int, n int64) { delivered += n }
	snd := udp.NewSender(sched, 3, 0, 2, 50*time.Millisecond, uids, nodes[0].Output())
	sched.At(0, snd.Start)
	sched.RunUntil(time.Second)
	if delivered < 15 || delivered > 21 {
		t.Errorf("delivered %d packets at 20/s over 1s, want ~19-20", delivered)
	}
}

func TestDemuxSeparatesFlows(t *testing.T) {
	sched, nodes, uids := buildStack(t, 1)
	sinkA := tcp.NewSink(sched, 0, 1, 0, tcp.AckEveryPacket, uids, nodes[1].Output())
	sinkB := tcp.NewSink(sched, 1, 1, 0, tcp.AckEveryPacket, uids, nodes[1].Output())
	nodes[1].AttachTCPSink(0, sinkA)
	nodes[1].AttachTCPSink(1, sinkB)
	sndA := tcp.NewEngine(sched, tcp.Config{}, 0, 0, 1, uids, nodes[0].Output(), tcp.NewNewRenoCC())
	sndB := tcp.NewEngine(sched, tcp.Config{}, 1, 0, 1, uids, nodes[0].Output(), tcp.NewNewRenoCC())
	nodes[0].AttachTCPSender(0, sndA)
	nodes[0].AttachTCPSender(1, sndB)
	sched.At(0, sndA.Start)
	sched.At(0, sndB.Start)
	sched.RunUntil(time.Second)
	if sinkA.Stats().GoodputPackets == 0 || sinkB.Stats().GoodputPackets == 0 {
		t.Errorf("flows starved: A=%d B=%d", sinkA.Stats().GoodputPackets, sinkB.Stats().GoodputPackets)
	}
}

func TestDuplicateAttachPanics(t *testing.T) {
	sched, nodes, uids := buildStack(t, 1)
	sink := tcp.NewSink(sched, 0, 1, 0, tcp.AckEveryPacket, uids, nodes[1].Output())
	nodes[1].AttachTCPSink(0, sink)
	defer func() {
		if recover() == nil {
			t.Error("duplicate sink attach did not panic")
		}
	}()
	nodes[1].AttachTCPSink(0, sink)
}

func TestRouterRequired(t *testing.T) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(1))
	n := New(sched, ch.Radio(0), mac.Config{DataRate: phy.Rate2Mbps})
	defer func() {
		if recover() == nil {
			t.Error("Output without router did not panic")
		}
	}()
	n.Output()(&pkt.Packet{})
}

func TestEnergyAccounting(t *testing.T) {
	sched, nodes, uids := buildStack(t, 1)
	snd := tcp.NewEngine(sched, tcp.Config{}, 0, 0, 1, uids, nodes[0].Output(), tcp.NewNewRenoCC())
	sink := tcp.NewSink(sched, 0, 1, 0, tcp.AckEveryPacket, uids, nodes[1].Output())
	nodes[0].AttachTCPSender(0, snd)
	nodes[1].AttachTCPSink(0, sink)
	sched.At(0, snd.Start)
	sched.RunUntil(time.Second)
	e0 := nodes[0].EnergyJoules(DefaultPower, time.Second)
	idleOnly := DefaultPower.Idle * 1.0
	if e0 <= idleOnly {
		t.Errorf("active sender energy %.3f J <= idle-only %.3f J", e0, idleOnly)
	}
	// The transmitter spends more than the pure-idle baseline; a silent
	// node burns exactly idle power.
	schedQuiet := sim.NewScheduler(1)
	chQuiet := phy.NewChannel(schedQuiet, geo.Chain(1))
	quiet := New(schedQuiet, chQuiet.Radio(0), mac.Config{DataRate: phy.Rate2Mbps})
	if got := quiet.EnergyJoules(DefaultPower, time.Second); got != idleOnly {
		t.Errorf("idle node energy = %.3f J, want %.3f J", got, idleOnly)
	}
}
