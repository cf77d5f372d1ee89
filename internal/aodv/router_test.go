package aodv

import (
	"slices"
	"testing"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// rig assembles a full MAC+AODV stack per node over one channel.
type rig struct {
	sched     *sim.Scheduler
	ch        *phy.Channel
	macs      []*mac.DCF
	routers   []*Router
	delivered [][]*pkt.Packet
	dropped   [][]*pkt.Packet
	uids      pkt.Pool
}

func newRig(t *testing.T, positions []geo.Point, seed int64, cfg Config) *rig {
	t.Helper()
	r := &rig{
		sched:     sim.NewScheduler(seed),
		delivered: make([][]*pkt.Packet, len(positions)),
		dropped:   make([][]*pkt.Packet, len(positions)),
	}
	r.ch = phy.NewChannel(r.sched, positions)
	r.macs = make([]*mac.DCF, len(positions))
	r.routers = make([]*Router, len(positions))
	for i := range positions {
		i := i
		id := pkt.NodeID(i)
		// Two-phase wiring: MAC callbacks close over the router slot.
		r.macs[i] = mac.New(r.sched, r.ch.Radio(id), mac.Config{DataRate: phy.Rate2Mbps}, mac.Callbacks{
			Deliver:     func(p *pkt.Packet, from pkt.NodeID) { r.routers[i].HandlePacket(p, from) },
			LinkFailure: func(p *pkt.Packet, nh pkt.NodeID) { r.routers[i].HandleLinkFailure(p, nh) },
		})
		r.routers[i] = New(r.sched, id, r.macs[i], &r.uids, cfg, func(p *pkt.Packet) {
			r.delivered[i] = append(r.delivered[i], p)
		})
		r.routers[i].DropData = func(p *pkt.Packet) { r.dropped[i] = append(r.dropped[i], p) }
	}
	return r
}

func (r *rig) data(src, dst pkt.NodeID) *pkt.Packet {
	return &pkt.Packet{UID: r.uids.Next(), Kind: pkt.KindTCPData, Size: 1500, Src: src, Dst: dst}
}

func TestDiscoveryAndDeliveryOverChain(t *testing.T) {
	r := newRig(t, geo.Chain(3), 1, Config{})
	p := r.data(0, 3)
	r.sched.At(0, func() { r.routers[0].Send(p) })
	r.sched.Run()
	if len(r.delivered[3]) != 1 || r.delivered[3][0] != p {
		t.Fatalf("delivered = %v, want the packet at node 3", r.delivered[3])
	}
	// Forward route installed at origin, reverse at destination.
	if rt := r.routers[0].Table().Lookup(3); rt == nil || rt.NextHop != 1 {
		t.Errorf("origin route = %+v, want next hop 1", rt)
	}
	if rt := r.routers[3].Table().Lookup(0); rt == nil || rt.NextHop != 2 {
		t.Errorf("destination reverse route = %+v, want next hop 2", rt)
	}
	if r.routers[0].Counters.RREQSent != 1 {
		t.Errorf("RREQ sent = %d, want 1", r.routers[0].Counters.RREQSent)
	}
}

func TestSecondSendUsesCachedRoute(t *testing.T) {
	r := newRig(t, geo.Chain(3), 1, Config{})
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 3)) })
	r.sched.At(2*time.Second, func() { r.routers[0].Send(r.data(0, 3)) })
	r.sched.Run()
	if len(r.delivered[3]) != 2 {
		t.Fatalf("delivered %d, want 2", len(r.delivered[3]))
	}
	if got := r.routers[0].Counters.RREQSent; got != 1 {
		t.Errorf("RREQ sent = %d, want 1 (second send cached)", got)
	}
}

func TestRREQDuplicateSuppression(t *testing.T) {
	// In a 4-node chain the middle nodes hear the same flood from both
	// sides; each node must forward a given RREQ at most once.
	r := newRig(t, geo.Chain(3), 2, Config{})
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 3)) })
	r.sched.Run()
	for i, rt := range r.routers {
		total := rt.Counters.RREQForwarded
		if total > 1 {
			t.Errorf("node %d forwarded RREQ %d times, want <=1", i, total)
		}
	}
}

func TestIntermediateNodeReplies(t *testing.T) {
	r := newRig(t, geo.Chain(4), 3, Config{})
	// Prime node 0's route to 4, which also gives nodes 1..3 routes to 4.
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 4)) })
	var rrepFromIntermediate bool
	r.sched.At(3*time.Second, func() {
		// Now node 1 wants a route to 4; node 2 (or closer) can reply.
		before := r.routers[4].Counters.RREPSent
		r.routers[1].Send(r.data(1, 4))
		r.sched.After(time.Second, func() {
			// Either the destination replied again, or an intermediate did.
			if r.routers[4].Counters.RREPSent == before {
				rrepFromIntermediate = true
			}
		})
	})
	r.sched.Run()
	if len(r.delivered[4]) != 2 {
		t.Fatalf("delivered %d, want 2", len(r.delivered[4]))
	}
	if !rrepFromIntermediate {
		t.Log("note: destination replied (intermediate reply not exercised under this seed)")
	}
}

func TestDiscoveryFailureDropsBufferedPackets(t *testing.T) {
	// Node 1 is out of range (600m): discovery can never succeed.
	positions := []geo.Point{{X: 0}, {X: 600}}
	cfg := Config{RREQRetries: 2, RREQTimeout: 50 * time.Millisecond}
	r := newRig(t, positions, 1, cfg)
	p := r.data(0, 1)
	r.sched.At(0, func() { r.routers[0].Send(p) })
	r.sched.Run()
	if len(r.delivered[1]) != 0 {
		t.Fatal("unreachable destination got the packet")
	}
	if r.routers[0].Counters.DiscoveryFailures != 1 {
		t.Errorf("discovery failures = %d, want 1", r.routers[0].Counters.DiscoveryFailures)
	}
	if len(r.dropped[0]) != 1 || r.dropped[0][0] != p {
		t.Errorf("dropped = %v, want the buffered packet", r.dropped[0])
	}
	if got := r.routers[0].Counters.RREQSent; got != 2 {
		t.Errorf("RREQ attempts = %d, want 2", got)
	}
}

func TestSendBufferOverflow(t *testing.T) {
	positions := []geo.Point{{X: 0}, {X: 600}}
	cfg := Config{BufferCap: 4, RREQRetries: 1, RREQTimeout: time.Hour}
	r := newRig(t, positions, 1, cfg)
	r.sched.At(0, func() {
		for i := 0; i < 6; i++ {
			r.routers[0].Send(r.data(0, 1))
		}
	})
	r.sched.RunUntil(time.Second)
	// 6 offered, cap 4: two oldest dropped on overflow.
	if got := r.routers[0].Counters.BufferDrops; got != 2 {
		t.Errorf("buffer drops = %d, want 2", got)
	}
}

func TestLinkFailureInvalidatesAndCountsFalseFailure(t *testing.T) {
	r := newRig(t, geo.Chain(2), 1, Config{})
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 2)) })
	r.sched.At(2*time.Second, func() {
		// Simulate the MAC giving up on next hop 1 (hidden-terminal
		// contention in real runs).
		p := r.data(0, 2)
		r.routers[0].HandleLinkFailure(p, 1)
	})
	r.sched.Run()
	if got := r.routers[0].Counters.FalseRouteFailures; got != 1 {
		t.Errorf("false route failures = %d, want 1", got)
	}
	// Routes through node 1 (to 1 and to 2) must be gone.
	if r.routers[0].Table().Lookup(2) != nil {
		t.Error("route to 2 still valid after link failure")
	}
	if r.routers[0].Counters.RERRSent == 0 {
		t.Error("no RERR broadcast after link failure")
	}
}

func TestRerrPropagatesUpstream(t *testing.T) {
	r := newRig(t, geo.Chain(3), 5, Config{})
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 3)) })
	r.sched.At(2*time.Second, func() {
		// Node 1 loses its link to node 2: its RERR must reach node 0 and
		// invalidate node 0's route to 3.
		r.routers[1].HandleLinkFailure(r.data(0, 3), 2)
	})
	r.sched.Run()
	if rt := r.routers[0].Table().Lookup(3); rt != nil {
		t.Errorf("node 0 still has route to 3 = %+v after upstream RERR", rt)
	}
}

func TestRediscoveryAfterFailure(t *testing.T) {
	r := newRig(t, geo.Chain(2), 1, Config{})
	p1 := r.data(0, 2)
	r.sched.At(0, func() { r.routers[0].Send(p1) })
	r.sched.At(2*time.Second, func() {
		r.routers[0].HandleLinkFailure(r.data(0, 2), 1)
	})
	p2 := r.data(0, 2)
	r.sched.At(3*time.Second, func() { r.routers[0].Send(p2) })
	r.sched.Run()
	if len(r.delivered[2]) != 2 {
		t.Fatalf("delivered %d, want 2 (rediscovery after failure)", len(r.delivered[2]))
	}
	if got := r.routers[0].Counters.RREQSent; got < 2 {
		t.Errorf("RREQ sent = %d, want >=2 (second discovery)", got)
	}
}

func TestRouteExpiry(t *testing.T) {
	cfg := Config{ActiveRouteTimeout: time.Second}
	r := newRig(t, geo.Chain(2), 1, cfg)
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 2)) })
	r.sched.At(5*time.Second, func() {
		if r.routers[0].Table().Lookup(2) != nil {
			t.Error("route still valid after expiry window")
		}
	})
	r.sched.Run()
}

func TestLocalDelivery(t *testing.T) {
	r := newRig(t, geo.Chain(1), 1, Config{})
	p := r.data(0, 0)
	r.routers[0].Send(p)
	if len(r.delivered[0]) != 1 {
		t.Error("self-addressed packet not delivered locally")
	}
}

func TestTableSequenceComparison(t *testing.T) {
	if !seqGreater(2, 1) || seqGreater(1, 2) || seqGreater(1, 1) {
		t.Error("basic sequence comparison wrong")
	}
	// Wraparound: 0x80000001 is "greater" than 1 by signed distance? No:
	// int32(0x80000001-1) = int32(0x80000000) < 0, so not greater.
	if seqGreater(0x80000001, 1) {
		t.Error("wraparound comparison wrong")
	}
	if !seqGreater(1, 0xFFFFFFFF) {
		t.Error("wraparound increment should be greater")
	}
}

func TestTableUpdateRules(t *testing.T) {
	sched := sim.NewScheduler(1)
	tb := NewTable(sched, sim.Time(time.Hour))
	if !tb.Update(5, 1, 3, 10) {
		t.Fatal("initial install rejected")
	}
	if tb.Update(5, 2, 5, 9) {
		t.Error("stale seq accepted")
	}
	if tb.Update(5, 2, 5, 10) {
		t.Error("equal seq with longer path accepted")
	}
	if !tb.Update(5, 2, 2, 10) {
		t.Error("equal seq with shorter path rejected")
	}
	if !tb.Update(5, 3, 9, 11) {
		t.Error("fresher seq with longer path rejected")
	}
	rt := tb.Lookup(5)
	if rt == nil || rt.NextHop != 3 || rt.HopCount != 9 {
		t.Errorf("final route = %+v", rt)
	}
}

func TestTableInvalidateNextHop(t *testing.T) {
	sched := sim.NewScheduler(1)
	tb := NewTable(sched, sim.Time(time.Hour))
	tb.Update(5, 1, 3, 10)
	tb.Update(6, 1, 4, 2)
	tb.Update(7, 2, 2, 7)
	lost := tb.InvalidateNextHop(1, nil)
	if want := []pkt.Unreachable{{Dst: 5, Seq: 11}, {Dst: 6, Seq: 3}}; !slices.Equal(lost, want) {
		t.Fatalf("invalidated %v, want %v", lost, want)
	}
	if tb.Lookup(5) != nil || tb.Lookup(6) != nil {
		t.Error("invalidated routes still resolvable")
	}
	if tb.Lookup(7) == nil {
		t.Error("unrelated route torn down")
	}
	// Sequence numbers bumped so stale info cannot reinstall.
	if tb.Update(5, 1, 3, 10) {
		t.Error("stale reinstall accepted after invalidation")
	}
}

func TestStaticRouterChain(t *testing.T) {
	positions := geo.Chain(4)
	adj := geo.Neighbors(positions, phy.TxRange)
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, positions)
	var uids pkt.Pool
	var delivered []*pkt.Packet
	routers := make([]*StaticRouter, len(positions))
	macs := make([]*mac.DCF, len(positions))
	for i := range positions {
		i := i
		macs[i] = mac.New(sched, ch.Radio(pkt.NodeID(i)), mac.Config{DataRate: phy.Rate2Mbps}, mac.Callbacks{
			Deliver:     func(p *pkt.Packet, from pkt.NodeID) { routers[i].HandlePacket(p, from) },
			LinkFailure: func(p *pkt.Packet, nh pkt.NodeID) { routers[i].HandleLinkFailure(p, nh) },
		})
		routers[i] = NewStatic(pkt.NodeID(i), macs[i], adj, func(p *pkt.Packet) {
			if i == 4 {
				delivered = append(delivered, p)
			}
		})
	}
	if nh := routers[0].NextHop(4); nh != 1 {
		t.Errorf("next hop 0->4 = %d, want 1", nh)
	}
	if nh := routers[3].NextHop(0); nh != 2 {
		t.Errorf("next hop 3->0 = %d, want 2", nh)
	}
	p := &pkt.Packet{UID: uids.Next(), Kind: pkt.KindTCPData, Size: 1500, Src: 0, Dst: 4}
	sched.At(0, func() { routers[0].Send(p) })
	sched.Run()
	if len(delivered) != 1 {
		t.Fatalf("delivered %d, want 1", len(delivered))
	}
}

func TestLinkAliveOracleClassifiesFailures(t *testing.T) {
	r := newRig(t, geo.Chain(2), 1, Config{})
	alive := true
	r.routers[0].LinkAlive = func(nh pkt.NodeID) bool { return alive }
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 2)) })
	r.sched.At(2*time.Second, func() {
		// MAC give-up with the neighbor still in range: false failure.
		r.routers[0].HandleLinkFailure(r.data(0, 2), 1)
	})
	r.sched.At(3*time.Second, func() {
		// Neighbor gone (moved away): true failure.
		alive = false
		r.routers[0].HandleLinkFailure(r.data(0, 2), 1)
	})
	r.sched.Run()
	c := r.routers[0].Counters
	if c.FalseRouteFailures != 1 || c.TrueRouteFailures != 1 {
		t.Errorf("false/true failures = %d/%d, want 1/1", c.FalseRouteFailures, c.TrueRouteFailures)
	}
}

func TestTableUpdateReplacesExpiredEqualSeqRoute(t *testing.T) {
	sched := sim.NewScheduler(1)
	tb := NewTable(sched, sim.Time(time.Second))
	tb.Update(5, 1, 3, 10)
	// Past the active-route timeout the entry is unusable; an equal-seq
	// route through a different neighbor (even a longer one) must replace
	// it, or this node becomes a permanent no-route sink for dst 5.
	sched.At(2*time.Second, func() {
		if tb.Lookup(5) != nil {
			t.Fatal("expired route still resolvable")
		}
		if !tb.Update(5, 2, 6, 10) {
			t.Error("equal-seq route rejected by an expired entry")
		}
		if rt := tb.Lookup(5); rt == nil || rt.NextHop != 2 {
			t.Errorf("route after update = %+v, want next hop 2", rt)
		}
	})
	sched.Run()
}

func TestDestinationBumpsSeqOnKnownSeqRREQ(t *testing.T) {
	// Two rediscoveries toward the same destination must install strictly
	// increasing destination sequence numbers at the origin (RFC 3561
	// §6.6.1), so each round outranks stale equal-seq state elsewhere.
	r := newRig(t, geo.Chain(2), 1, Config{})
	r.sched.At(0, func() { r.routers[0].Send(r.data(0, 2)) })
	var firstSeq uint32
	r.sched.At(2*time.Second, func() {
		e := r.routers[0].Table().Entry(2)
		if e == nil {
			t.Fatal("no route after first discovery")
		}
		firstSeq = e.SeqNo
		// Tear the route down and rediscover.
		r.routers[0].HandleLinkFailure(r.data(0, 2), 1)
		r.routers[0].Send(r.data(0, 2))
	})
	r.sched.Run()
	e := r.routers[0].Table().Entry(2)
	if e == nil {
		t.Fatal("no route after rediscovery")
	}
	if !seqGreater(e.SeqNo, firstSeq) {
		t.Errorf("rediscovered seq %d not greater than first %d", e.SeqNo, firstSeq)
	}
}

// TestSeenPruneHighWaterMark: once the duplicate-suppression map holds
// seenPruneFloor live entries, a new RREQ must not rescan it every time.
// Each step below adds one live entry and re-adds one expired sentinel,
// so every prune is visible as the sentinel's removal: 20 000 live floods
// take one prune at 4 096 entries and one per doubling after it.
func TestSeenPruneHighWaterMark(t *testing.T) {
	sched := sim.NewScheduler(1)
	r := New(sched, 0, nil, &pkt.Pool{}, Config{}, func(*pkt.Packet) {})
	live := sim.Time(time.Hour)
	expired := rreqKey{origin: 2}
	prunes := 0
	for i := 0; i < 20000; i++ {
		r.seen[rreqKey{origin: 1, id: uint32(i)}] = live
		r.seen[expired] = 0
		r.gcSeen(sched.Now())
		if _, ok := r.seen[expired]; !ok {
			prunes++
		}
	}
	if prunes != 3 {
		t.Errorf("20000 live floods pruned the map %d times, want 3 (at 4096, 8190 and 16378 entries)", prunes)
	}
	if _, ok := r.seen[rreqKey{origin: 1, id: 0}]; !ok {
		t.Error("a prune removed a live entry")
	}
}
