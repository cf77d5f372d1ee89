package tcp

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"manetsim/internal/pkt"
)

// TestQuickWindowInvariants property-checks, under arbitrary random loss
// patterns on both directions, that for both senders:
//   - the congestion window stays within [1, Wmax],
//   - the sink's cumulative goodput never exceeds distinct data sent,
//   - sequence space has no gaps at the sink once the run drains.
func TestQuickWindowInvariants(t *testing.T) {
	f := func(seed int64, lossPctRaw uint8, vegas bool) bool {
		lossPct := int(lossPctRaw % 40) // up to 40% loss
		rng := rand.New(rand.NewSource(seed))
		pp := newPipe(seed, 5*time.Millisecond, 500*time.Microsecond, 0)
		pp.dropData = func(h *pkt.TCPHeader) bool { return rng.Intn(100) < lossPct }
		pp.dropAck = func(h *pkt.TCPHeader) bool { return rng.Intn(100) < lossPct/2 }
		var s *Engine
		if vegas {
			s = pp.connectVegas(Config{}).Engine
		} else {
			s = pp.connectNewReno(Config{})
		}
		ok := true
		var watch func()
		watch = func() {
			w := s.Window()
			if w < 1 || w > 64 {
				ok = false
			}
			pp.sched.After(10*time.Millisecond, watch)
		}
		pp.sched.At(0, watch)
		pp.run(3 * time.Second)
		st := s.Stats()
		sinkSt := pp.sink.Stats()
		// Goodput cannot exceed what was ever sent minus retransmissions
		// of the same sequence (distinct sequences sent).
		distinctSent := st.DataSent - st.Retransmits
		if sinkSt.GoodputPackets > int64(distinctSent) {
			ok = false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickEventualDelivery property-checks that as long as loss stops,
// both variants eventually deliver everything outstanding (no deadlock in
// the retransmission machinery).
func TestQuickEventualDelivery(t *testing.T) {
	f := func(seed int64, vegas bool) bool {
		rng := rand.New(rand.NewSource(seed))
		pp := newPipe(seed, 5*time.Millisecond, 500*time.Microsecond, 0)
		lossy := true
		pp.dropData = func(h *pkt.TCPHeader) bool { return lossy && rng.Intn(100) < 30 }
		if vegas {
			pp.connectVegas(Config{})
		} else {
			pp.connectNewReno(Config{})
		}
		pp.sched.At(2*time.Second, func() { lossy = false })
		pp.run(10 * time.Second)
		// After 8 clean seconds the connection must be flowing: a healthy
		// sender delivers thousands of packets in that time.
		return pp.sink.Stats().GoodputPackets > 1000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestQuickSinkCumulativeAckMonotone property-checks that sink ACK values
// never decrease, for any arrival permutation with duplicates.
func TestQuickSinkCumulativeAckMonotone(t *testing.T) {
	f := func(seed int64, thinning bool, nRaw uint8) bool {
		n := int64(nRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		r := newSinkRig(thinning)
		// Random arrival order with duplicates.
		var arrivals []int64
		for seq := int64(0); seq < n; seq++ {
			arrivals = append(arrivals, seq)
			if rng.Intn(4) == 0 {
				arrivals = append(arrivals, seq) // duplicate
			}
		}
		rng.Shuffle(len(arrivals), func(i, j int) {
			arrivals[i], arrivals[j] = arrivals[j], arrivals[i]
		})
		for _, seq := range arrivals {
			r.sink.HandleData(r.data(seq))
		}
		r.sched.RunUntil(r.sched.Now() + 2*AckRegenTimeout)
		var prev int64 = -1
		for _, a := range r.acks {
			if a.TCP.Ack < prev {
				return false
			}
			prev = a.TCP.Ack
		}
		// Everything arrived, so the final cumulative ack covers all of it.
		return prev == n && r.sink.Stats().GoodputPackets == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestQuickThinningDegreeMonotone property-checks d never decreases with
// the sequence number and stays in [1,4].
func TestQuickThinningDegreeMonotone(t *testing.T) {
	f := func(aRaw, bRaw uint16) bool {
		a, b := int64(aRaw), int64(bRaw)
		if a > b {
			a, b = b, a
		}
		da, db := ThinningDegree(a), ThinningDegree(b)
		return da >= 1 && db <= 4 && da <= db
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}
