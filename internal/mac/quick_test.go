package mac

import (
	"testing"
	"testing/quick"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// TestQuickBackoffDrawsWithinWindow property-checks the backoff sampler
// stays within [0, cw] across contention-window growth.
func TestQuickBackoffDrawsWithinWindow(t *testing.T) {
	f := func(seed int64, growths uint8) bool {
		sched := sim.NewScheduler(seed)
		ch := phy.NewChannel(sched, geo.Chain(1))
		d := New(sched, ch.Radio(0), Config{DataRate: phy.Rate2Mbps}, Callbacks{
			Deliver:     func(*pkt.Packet, pkt.NodeID) {},
			LinkFailure: func(*pkt.Packet, pkt.NodeID) {},
		})
		for i := 0; i < int(growths%15); i++ {
			d.growCW()
		}
		if d.cw < CWMin || d.cw > CWMax {
			return false
		}
		for i := 0; i < 50; i++ {
			if s := d.drawBackoff(); s < 0 || s > d.cw {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestQuickDeliveryConservation property-checks, for random offered loads
// on a 2-hop relay, that delivered packets never exceed accepted packets
// and duplicate suppression never delivers the same UID twice.
func TestQuickDeliveryConservation(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		sched := sim.NewScheduler(seed)
		positions := geo.Chain(2)
		ch := phy.NewChannel(sched, positions)
		var uids pkt.Pool
		seen := map[uint64]int{}
		macs := make([]*DCF, 3)
		for i := 0; i < 3; i++ {
			i := i
			macs[i] = New(sched, ch.Radio(pkt.NodeID(i)), Config{DataRate: phy.Rate2Mbps}, Callbacks{
				Deliver: func(p *pkt.Packet, _ pkt.NodeID) {
					if i == 1 && p.Dst == 2 {
						macs[1].Enqueue(p, 2)
						return
					}
					seen[p.UID]++
				},
				LinkFailure: func(*pkt.Packet, pkt.NodeID) {},
			})
		}
		accepted := 0
		sched.At(0, func() {
			for j := 0; j < n; j++ {
				p := &pkt.Packet{UID: uids.Next(), Kind: pkt.KindTCPData, Size: 1500, Src: 0, Dst: 2}
				if macs[0].Enqueue(p, 1) {
					accepted++
				}
			}
		})
		sched.Run()
		delivered := 0
		for _, c := range seen {
			if c > 1 {
				return false // duplicate delivery
			}
			delivered += c
		}
		return delivered <= accepted
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEIFSAfterCorruption checks the MAC uses the extended IFS after an
// errored reception and returns to DIFS afterwards.
func TestEIFSAfterCorruption(t *testing.T) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(1))
	d := New(sched, ch.Radio(0), Config{DataRate: phy.Rate2Mbps}, Callbacks{
		Deliver:     func(*pkt.Packet, pkt.NodeID) {},
		LinkFailure: func(*pkt.Packet, pkt.NodeID) {},
	})
	d.RxCorrupted()
	if !d.useEIFS {
		t.Fatal("EIFS flag not set after corruption")
	}
	// A good frame clears it.
	d.RxFrame(&Frame{Type: FrameCTS, From: 9, To: 8}, 1)
	if d.useEIFS {
		t.Error("EIFS flag not cleared by a good frame")
	}
}

// TestExchangeTimesScaleWithPacketSize sanity-checks DataAir monotonicity.
func TestExchangeTimesScaleWithPacketSize(t *testing.T) {
	tm := NewTiming(phy.Rate2Mbps)
	if tm.DataAir(100) >= tm.DataAir(1500) {
		t.Error("airtime not monotone in frame size")
	}
	small := tm.ExchangeTime(40)
	big := tm.ExchangeTime(1500)
	if small >= big {
		t.Error("exchange time not monotone in packet size")
	}
	// An ACK-sized exchange still pays the full control overhead.
	if small < DIFS+tm.RTSAir+tm.CTSAir+tm.AckAir {
		t.Error("exchange time misses control overhead")
	}
}

func TestQueueFIFOOrder(t *testing.T) {
	sched := sim.NewScheduler(1)
	positions := geo.Chain(1)
	ch := phy.NewChannel(sched, positions)
	var uids pkt.Pool
	var got []uint64
	macs := make([]*DCF, 2)
	for i := 0; i < 2; i++ {
		macs[i] = New(sched, ch.Radio(pkt.NodeID(i)), Config{DataRate: phy.Rate2Mbps}, Callbacks{
			Deliver:     func(p *pkt.Packet, _ pkt.NodeID) { got = append(got, p.UID) },
			LinkFailure: func(*pkt.Packet, pkt.NodeID) {},
		})
	}
	var want []uint64
	sched.At(0, func() {
		for j := 0; j < 10; j++ {
			p := &pkt.Packet{UID: uids.Next(), Kind: pkt.KindTCPData, Size: 1500, Src: 0, Dst: 1}
			want = append(want, p.UID)
			macs[0].Enqueue(p, 1)
		}
	})
	sched.Run()
	if len(got) != len(want) {
		t.Fatalf("delivered %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery order %v, want FIFO %v", got, want)
		}
	}
}

func TestNAVExpiryResumesTransmission(t *testing.T) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(1))
	var delivered int
	macs := make([]*DCF, 2)
	for i := 0; i < 2; i++ {
		macs[i] = New(sched, ch.Radio(pkt.NodeID(i)), Config{DataRate: phy.Rate2Mbps}, Callbacks{
			Deliver:     func(*pkt.Packet, pkt.NodeID) { delivered++ },
			LinkFailure: func(*pkt.Packet, pkt.NodeID) {},
		})
	}
	var uids pkt.Pool
	sched.At(0, func() {
		// Pre-load a NAV reservation, then enqueue: the packet must wait
		// out the NAV and then go.
		macs[0].RxFrame(&Frame{Type: FrameCTS, From: 8, To: 9, Duration: 20 * time.Millisecond}, 1)
		macs[0].Enqueue(&pkt.Packet{UID: uids.Next(), Kind: pkt.KindTCPData, Size: 1500, Src: 0, Dst: 1}, 1)
	})
	sched.RunUntil(15 * time.Millisecond)
	if delivered != 0 {
		t.Fatal("transmitted during NAV reservation")
	}
	sched.RunUntil(100 * time.Millisecond)
	if delivered != 1 {
		t.Fatalf("delivered %d after NAV expiry, want 1", delivered)
	}
}
