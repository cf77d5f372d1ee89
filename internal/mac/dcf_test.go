package mac

import (
	"testing"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// macRig wires a set of DCFs over one channel and records deliveries and
// link failures per node.
type macRig struct {
	sched    *sim.Scheduler
	ch       *phy.Channel
	macs     []*DCF
	received [][]*pkt.Packet
	failures [][]*pkt.Packet
	uids     pkt.Pool
}

func newMacRig(t *testing.T, positions []geo.Point, rate phy.Rate, seed int64) *macRig {
	t.Helper()
	r := &macRig{
		sched:    sim.NewScheduler(seed),
		received: make([][]*pkt.Packet, len(positions)),
		failures: make([][]*pkt.Packet, len(positions)),
	}
	r.ch = phy.NewChannel(r.sched, positions)
	for i := range positions {
		i := i
		cb := Callbacks{
			Deliver:     func(p *pkt.Packet, _ pkt.NodeID) { r.received[i] = append(r.received[i], p) },
			LinkFailure: func(p *pkt.Packet, _ pkt.NodeID) { r.failures[i] = append(r.failures[i], p) },
		}
		r.macs = append(r.macs, New(r.sched, r.ch.Radio(pkt.NodeID(i)), Config{DataRate: rate}, cb))
	}
	return r
}

func (r *macRig) packet(src, dst pkt.NodeID, size int) *pkt.Packet {
	return &pkt.Packet{UID: r.uids.Next(), Kind: pkt.KindTCPData, Size: size, Src: src, Dst: dst}
}

func TestUnicastDelivery(t *testing.T) {
	r := newMacRig(t, geo.Chain(1), phy.Rate2Mbps, 1)
	p := r.packet(0, 1, 1500)
	r.sched.At(0, func() { r.macs[0].Enqueue(p, 1) })
	r.sched.Run()
	if len(r.received[1]) != 1 || r.received[1][0] != p {
		t.Fatalf("node 1 received %v, want the packet", r.received[1])
	}
	c := r.macs[0].Counters
	if c.RTSSent != 1 || c.DataSent != 1 {
		t.Errorf("sender counters = %+v, want 1 RTS and 1 DATA", c)
	}
	rc := r.macs[1].Counters
	if rc.CTSSent != 1 || rc.AckSent != 1 {
		t.Errorf("receiver counters = %+v, want 1 CTS and 1 ACK", rc)
	}
	if len(r.failures[0]) != 0 {
		t.Error("unexpected link failure")
	}
}

func TestUnicastExchangeTiming(t *testing.T) {
	// With an idle medium the full exchange completes within
	// DIFS + maxBackoff + RTS+SIFS+CTS+SIFS+DATA+SIFS+ACK + slack.
	r := newMacRig(t, geo.Chain(1), phy.Rate2Mbps, 1)
	p := r.packet(0, 1, 1500)
	var doneAt sim.Time
	cb := Callbacks{
		Deliver:     func(*pkt.Packet, pkt.NodeID) { doneAt = r.sched.Now() },
		LinkFailure: func(*pkt.Packet, pkt.NodeID) {},
	}
	r.macs[1] = New(r.sched, r.ch.Radio(1), Config{DataRate: phy.Rate2Mbps}, cb)
	r.sched.At(0, func() { r.macs[0].Enqueue(p, 1) })
	r.sched.Run()
	tm := NewTiming(phy.Rate2Mbps)
	// Delivery happens at end of DATA (before the ACK), so subtract the
	// trailing SIFS+ACK from the full exchange.
	minT := tm.ExchangeTime(1500) - tm.AckAir - SIFS - SIFS // no backoff, delivery before ack
	maxT := minT + 31*SlotTime + 100*time.Microsecond
	if doneAt == 0 || doneAt < minT-time.Millisecond || doneAt > maxT {
		t.Errorf("delivery at %v, want within [%v, %v]", doneAt, minT, maxT)
	}
}

func TestQueueOverflowDrops(t *testing.T) {
	r := newMacRig(t, geo.Chain(1), phy.Rate2Mbps, 1)
	// ns-2 semantics: the interface queue holds QueueCap packets plus one
	// in service at the MAC, so QueueCap+1 are accepted.
	const offered = DefaultQueueCap + 10
	r.sched.At(0, func() {
		okCount := 0
		for i := 0; i < offered; i++ {
			if r.macs[0].Enqueue(r.packet(0, 1, 1500), 1) {
				okCount++
			}
		}
		if okCount != DefaultQueueCap+1 {
			t.Errorf("accepted %d packets, want %d", okCount, DefaultQueueCap+1)
		}
	})
	r.sched.Run()
	if got := r.macs[0].Counters.QueueDrops; got != offered-DefaultQueueCap-1 {
		t.Errorf("queue drops = %d, want %d", got, offered-DefaultQueueCap-1)
	}
	if len(r.received[1]) != DefaultQueueCap+1 {
		t.Errorf("delivered %d, want %d", len(r.received[1]), DefaultQueueCap+1)
	}
}

func TestRetryExhaustionReportsLinkFailure(t *testing.T) {
	// Next hop at 400m: senses energy but can never decode the RTS, so
	// the sender exhausts ShortRetryLimit attempts and reports failure.
	r := newMacRig(t, []geo.Point{{X: 0}, {X: 400}}, phy.Rate2Mbps, 1)
	p := r.packet(0, 1, 1500)
	r.sched.At(0, func() { r.macs[0].Enqueue(p, 1) })
	r.sched.Run()
	if len(r.failures[0]) != 1 || r.failures[0][0] != p {
		t.Fatalf("failures = %v, want the packet", r.failures[0])
	}
	c := r.macs[0].Counters
	if c.RTSSent != ShortRetryLimit {
		t.Errorf("RTS attempts = %d, want %d", c.RTSSent, ShortRetryLimit)
	}
	if c.RetryDrops != 1 {
		t.Errorf("retry drops = %d, want 1", c.RetryDrops)
	}
	if len(r.received[1]) != 0 {
		t.Error("undeliverable packet was delivered")
	}
}

func TestBackoffGrowsContentionWindow(t *testing.T) {
	r := newMacRig(t, []geo.Point{{X: 0}, {X: 400}}, phy.Rate2Mbps, 1)
	m := r.macs[0]
	if m.cw != CWMin {
		t.Fatalf("initial cw = %d, want %d", m.cw, CWMin)
	}
	p := r.packet(0, 1, 1500)
	r.sched.At(0, func() { m.Enqueue(p, 1) })
	r.sched.Run()
	// After the drop the CW resets.
	if m.cw != CWMin {
		t.Errorf("cw after drop = %d, want reset to %d", m.cw, CWMin)
	}
}

func TestGrowCWCapsAtMax(t *testing.T) {
	r := newMacRig(t, geo.Chain(1), phy.Rate2Mbps, 1)
	m := r.macs[0]
	for i := 0; i < 20; i++ {
		m.growCW()
	}
	if m.cw != CWMax {
		t.Errorf("cw = %d, want capped at %d", m.cw, CWMax)
	}
}

func TestBroadcastNoAckNoRetry(t *testing.T) {
	r := newMacRig(t, geo.Chain(2), phy.Rate2Mbps, 1)
	p := &pkt.Packet{UID: r.uids.Next(), Kind: pkt.KindRouting, Size: 64, Src: 1, Dst: pkt.Broadcast}
	r.sched.At(0, func() { r.macs[1].Enqueue(p, pkt.Broadcast) })
	r.sched.Run()
	// Both chain neighbors of node 1 receive it.
	if len(r.received[0]) != 1 || len(r.received[2]) != 1 {
		t.Fatalf("broadcast received by %d/%d, want 1/1", len(r.received[0]), len(r.received[2]))
	}
	c := r.macs[1].Counters
	if c.BcastSent != 1 || c.RTSSent != 0 {
		t.Errorf("counters = %+v, want pure broadcast", c)
	}
	if r.macs[0].Counters.AckSent != 0 {
		t.Error("broadcast must not be ACKed")
	}
}

// TestHiddenTerminalCausesRetries reproduces the paper's scenario: two
// senders out of carrier-sense range of each other transmitting to
// receivers within interference range. Collisions must occur and be
// resolved by MAC retries.
func TestHiddenTerminalCausesRetries(t *testing.T) {
	// 0 -> 1 and 3 -> 2: senders 0 and 3 are 600m apart (hidden), the
	// receivers sit between them.
	positions := []geo.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}}
	r := newMacRig(t, positions, phy.Rate2Mbps, 3)
	const n = 40
	r.sched.At(0, func() {
		for i := 0; i < n; i++ {
			r.macs[0].Enqueue(r.packet(0, 1, 1500), 1)
			r.macs[3].Enqueue(r.packet(3, 2, 1500), 2)
		}
	})
	r.sched.Run()
	retries := r.macs[0].Counters.Retries + r.macs[3].Counters.Retries
	if retries == 0 {
		t.Error("hidden terminals produced zero retries; collision model inactive?")
	}
	// Despite collisions, most traffic eventually gets through.
	if len(r.received[1]) < n/2 || len(r.received[2]) < n/2 {
		t.Errorf("delivered %d and %d of %d; excessive loss", len(r.received[1]), len(r.received[2]), n)
	}
}

// TestCarrierSenseSerializesNeighbors: two senders in carrier-sense range
// sharing a receiver must interleave without a single retry drop.
func TestCarrierSenseSerializesNeighbors(t *testing.T) {
	positions := []geo.Point{{X: 0}, {X: 200}, {X: 400}}
	r := newMacRig(t, positions, phy.Rate2Mbps, 5)
	const n = 30
	r.sched.At(0, func() {
		for i := 0; i < n; i++ {
			r.macs[0].Enqueue(r.packet(0, 1, 1500), 1)
			r.macs[2].Enqueue(r.packet(2, 1, 1500), 1)
		}
	})
	r.sched.Run()
	if got := len(r.received[1]); got != 2*n {
		t.Errorf("delivered %d, want %d", got, 2*n)
	}
	drops := r.macs[0].Counters.RetryDrops + r.macs[2].Counters.RetryDrops
	if drops != 0 {
		t.Errorf("retry drops = %d, want 0 for carrier-sensing neighbors", drops)
	}
}

func TestDuplicateSuppressionAtReceiver(t *testing.T) {
	r := newMacRig(t, geo.Chain(1), phy.Rate2Mbps, 1)
	p := r.packet(0, 1, 1500)
	// Simulate a MAC-level duplicate by delivering the same UID twice
	// through the receive path.
	f := &Frame{Type: FrameData, From: 0, To: 1, Payload: p}
	r.sched.At(0, func() {
		r.macs[1].onData(f, 0)
		r.macs[1].onData(f, 0)
	})
	r.sched.Run()
	if len(r.received[1]) != 1 {
		t.Fatalf("delivered %d copies, want 1", len(r.received[1]))
	}
	if r.macs[1].Counters.DupsSuppressed != 1 {
		t.Errorf("dups suppressed = %d, want 1", r.macs[1].Counters.DupsSuppressed)
	}
}

func TestFilterQueue(t *testing.T) {
	r := newMacRig(t, geo.Chain(2), phy.Rate2Mbps, 1)
	m := r.macs[0]
	// Stuff the queue without running the scheduler.
	for i := 0; i < 5; i++ {
		m.Enqueue(r.packet(0, 2, 1500), 1)
	}
	for i := 0; i < 3; i++ {
		m.Enqueue(r.packet(0, 2, 1500), 2)
	}
	removed := m.FilterQueue(2, nil)
	if len(removed) != 3 {
		t.Errorf("removed %d packets, want 3", len(removed))
	}
	// 5 to next-hop 1 minus the one already in service.
	if m.QueueLen() != 4 {
		t.Errorf("queue len = %d, want 4", m.QueueLen())
	}
}

func TestNAVBlocksContention(t *testing.T) {
	r := newMacRig(t, geo.Chain(2), phy.Rate2Mbps, 1)
	m := r.macs[2]
	r.sched.At(0, func() {
		// Node 2 overhears a CTS (not addressed to it) reserving 5ms.
		f := &Frame{Type: FrameCTS, From: 1, To: 0, Duration: 5 * time.Millisecond}
		m.RxFrame(f, 1)
		m.Enqueue(r.packet(2, 1, 1500), 1)
	})
	var deliveredAt sim.Time
	cb := Callbacks{
		Deliver:     func(*pkt.Packet, pkt.NodeID) { deliveredAt = r.sched.Now() },
		LinkFailure: func(*pkt.Packet, pkt.NodeID) {},
	}
	r.macs[1] = New(r.sched, r.ch.Radio(1), Config{DataRate: phy.Rate2Mbps}, cb)
	r.sched.Run()
	if deliveredAt < 5*time.Millisecond {
		t.Errorf("delivery at %v, want after the 5ms NAV reservation", deliveredAt)
	}
}

func TestRTSNotAnsweredUnderNAV(t *testing.T) {
	r := newMacRig(t, geo.Chain(1), phy.Rate2Mbps, 1)
	m := r.macs[1]
	r.sched.At(0, func() {
		// NAV set by an overheard frame...
		m.RxFrame(&Frame{Type: FrameCTS, From: 9, To: 8, Duration: 10 * time.Millisecond}, 0)
		// ...then an RTS addressed to us arrives: must not CTS.
		m.onRTS(&Frame{Type: FrameRTS, From: 0, To: 1, Duration: 8 * time.Millisecond}, 0)
	})
	r.sched.RunUntil(2 * time.Millisecond)
	if m.Counters.CTSSent != 0 {
		t.Error("CTS sent despite NAV reservation")
	}
}

func TestEnqueueAfterIdlePeriodStillWorks(t *testing.T) {
	r := newMacRig(t, geo.Chain(1), phy.Rate2Mbps, 1)
	r.sched.At(0, func() { r.macs[0].Enqueue(r.packet(0, 1, 1500), 1) })
	r.sched.At(time.Second, func() { r.macs[0].Enqueue(r.packet(0, 1, 1500), 1) })
	r.sched.Run()
	if len(r.received[1]) != 2 {
		t.Errorf("delivered %d, want 2", len(r.received[1]))
	}
}

func TestMissingCallbacksPanic(t *testing.T) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(1))
	defer func() {
		if recover() == nil {
			t.Error("nil callbacks did not panic")
		}
	}()
	New(sched, ch.Radio(0), Config{DataRate: phy.Rate2Mbps}, Callbacks{})
}

// TestChainForwardingPipelining pushes packets across a 4-hop chain of
// forwarding MACs, exercising NAV, EIFS and inter-hop contention.
func TestChainForwardingPipelining(t *testing.T) {
	positions := geo.Chain(4)
	r := newMacRig(t, positions, phy.Rate2Mbps, 7)
	// Wire static forwarding: node i forwards to i+1.
	for i := 0; i <= 3; i++ {
		i := i
		cb := Callbacks{
			Deliver: func(p *pkt.Packet, _ pkt.NodeID) {
				if pkt.NodeID(i) == p.Dst {
					r.received[i] = append(r.received[i], p)
					return
				}
				r.macs[i].Enqueue(p, pkt.NodeID(i+1))
			},
			LinkFailure: func(p *pkt.Packet, _ pkt.NodeID) { r.failures[i] = append(r.failures[i], p) },
		}
		r.macs[i] = New(r.sched, r.ch.Radio(pkt.NodeID(i)), Config{DataRate: phy.Rate2Mbps}, cb)
	}
	// Rebuild node 4 (sink).
	cb4 := Callbacks{
		Deliver:     func(p *pkt.Packet, _ pkt.NodeID) { r.received[4] = append(r.received[4], p) },
		LinkFailure: func(p *pkt.Packet, _ pkt.NodeID) {},
	}
	r.macs[4] = New(r.sched, r.ch.Radio(4), Config{DataRate: phy.Rate2Mbps}, cb4)

	const n = 20
	r.sched.At(0, func() {
		for i := 0; i < n; i++ {
			r.macs[0].Enqueue(r.packet(0, 4, 1500), 1)
		}
	})
	r.sched.Run()
	if got := len(r.received[4]); got < n-2 {
		t.Errorf("sink received %d of %d packets", got, n)
	}
}
