package aodv

import (
	"testing"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// TestControlPlaneZeroAlloc pins the allocation-free AODV control plane on
// a 5-node line of real mac+aodv nodes. One warm-up round makes every
// route entry, discovery record, send buffer, RERR list and pooled block
// the rounds need; after it, a round of the three control-plane steps must
// not allocate:
//
//  1. a rediscovery: the RREQ flood out, the RREP back, the buffered
//     packet delivered;
//  2. a forced link failure at node 1 toward node 2, with its RERR and the
//     RERR node 0 propagates;
//  3. a no-route drop at node 1, with its RERR.
//
// Each round also adds an entry per node to AODV's duplicate-suppression
// map (pruned only past seenPruneFloor entries) and UIDs to the MACs'
// 128-entry duplicate filters. Those maps grow geometrically, so over 500
// rounds their rehashes amortize to well under one allocation per round,
// while a per-message or per-route allocation costs several every round.
func TestControlPlaneZeroAlloc(t *testing.T) {
	const hops = 4
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(hops))
	var uids pkt.Pool
	routers := make([]*Router, hops+1)
	delivered, dropped := 0, 0
	for i := range routers {
		i := i
		id := pkt.NodeID(i)
		m := mac.New(sched, ch.Radio(id), mac.Config{DataRate: phy.Rate2Mbps}, mac.Callbacks{
			Deliver:     func(p *pkt.Packet, from pkt.NodeID) { routers[i].HandlePacket(p, from) },
			LinkFailure: func(p *pkt.Packet, nh pkt.NodeID) { routers[i].HandleLinkFailure(p, nh) },
		})
		routers[i] = New(sched, id, m, &uids, Config{}, func(p *pkt.Packet) { delivered++; p.Release() })
		routers[i].DropData = func(*pkt.Packet) { dropped++ }
	}
	data := func() *pkt.Packet {
		p := uids.NewTCP()
		p.Kind = pkt.KindTCPData
		p.Size = pkt.TCPDataSize
		p.Src, p.Dst = 0, hops
		return p
	}
	noop := func() {}
	round := func() {
		// Let every route and duplicate-suppression entry expire, so the
		// send below starts a fresh discovery.
		sched.After(time.Minute, noop)
		sched.Run()
		routers[0].Send(data())
		sched.Run()
		routers[1].HandleLinkFailure(data(), 2)
		sched.Run()
		routers[1].HandlePacket(data(), 0)
		sched.Run()
	}
	round()
	src, relay := routers[0].Counters, routers[1].Counters
	delivered0, dropped0 := delivered, dropped

	const runs = 500
	allocs := testing.AllocsPerRun(runs, round)
	n := uint64(runs + 1) // AllocsPerRun calls round once more to warm up
	if got := routers[0].Counters.RREQSent - src.RREQSent; got != n {
		t.Errorf("%d rounds sent %d RREQs, want one each", n, got)
	}
	if got := delivered - delivered0; uint64(got) != n {
		t.Errorf("%d rounds delivered %d packets, want one each", n, got)
	}
	if got := routers[1].Counters.FalseRouteFailures - relay.FalseRouteFailures; got != n {
		t.Errorf("%d rounds counted %d link failures at node 1, want one each", n, got)
	}
	if got := routers[1].Counters.NoRouteDrops - relay.NoRouteDrops; got != n {
		t.Errorf("%d rounds counted %d no-route drops at node 1, want one each", n, got)
	}
	if got := routers[1].Counters.RERRSent - relay.RERRSent; got != 2*n {
		t.Errorf("%d rounds sent %d RERRs from node 1, want two each", n, got)
	}
	if got := routers[0].Counters.RERRSent - src.RERRSent; got != n {
		t.Errorf("%d rounds propagated %d RERRs from node 0, want one each", n, got)
	}
	if got := dropped - dropped0; uint64(got) != 2*n {
		t.Errorf("%d rounds dropped %d data packets, want two each", n, got)
	}
	if allocs != 0 {
		t.Errorf("control-plane round allocates %.1f times, want 0", allocs)
	}
}
