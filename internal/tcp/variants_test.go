package tcp

import (
	"testing"
	"time"

	"manetsim/internal/pkt"
)

func TestRenoSingleLossFastRecovery(t *testing.T) {
	pp := newPipe(1, 10*time.Millisecond, 100*time.Microsecond, 0)
	dropped := false
	pp.dropData = func(h *pkt.TCPHeader) bool {
		if h.Seq == 30 && !h.Retransmit && !dropped {
			dropped = true
			return true
		}
		return false
	}
	s := pp.connectReno(Config{})
	pp.run(2 * time.Second)
	st := s.Stats()
	if st.Timeouts != 0 {
		t.Errorf("timeouts = %d, want 0 (single loss recovers via fast retransmit)", st.Timeouts)
	}
	if st.FastRecov != 1 || st.Retransmits != 1 {
		t.Errorf("fastRecov/rtx = %d/%d, want 1/1", st.FastRecov, st.Retransmits)
	}
}

// TestRenoMultiLossNeedsTimeoutButNewRenoDoesNot pins the classic
// difference that motivated NewReno: several losses in one window stall
// Reno into an RTO while NewReno's partial ACKs recover without one.
func TestRenoMultiLossNeedsTimeoutButNewRenoDoesNot(t *testing.T) {
	run := func(newreno bool) Stats {
		pp := newPipe(1, 10*time.Millisecond, 100*time.Microsecond, 0)
		drops := map[int64]bool{40: true, 42: true, 44: true, 46: true}
		pp.dropData = func(h *pkt.TCPHeader) bool {
			if h.Retransmit {
				return false
			}
			if drops[h.Seq] {
				delete(drops, h.Seq)
				return true
			}
			return false
		}
		var s *Engine
		if newreno {
			s = pp.connectNewReno(Config{})
		} else {
			s = pp.connectReno(Config{})
		}
		pp.run(4 * time.Second)
		return s.Stats()
	}
	nr := run(true)
	r := run(false)
	if nr.Timeouts != 0 {
		t.Errorf("NewReno timeouts = %d, want 0 on 4-loss window", nr.Timeouts)
	}
	if r.Timeouts == 0 {
		t.Error("classic Reno recovered a 4-loss window without timeout; partial-ACK behaviour leaked in")
	}
}

func TestTahoeCollapsesWindowOnLoss(t *testing.T) {
	pp := newPipe(1, 10*time.Millisecond, 100*time.Microsecond, 0)
	dropped := false
	pp.dropData = func(h *pkt.TCPHeader) bool {
		if h.Seq == 30 && !h.Retransmit && !dropped {
			dropped = true
			return true
		}
		return false
	}
	s := pp.connectTahoe(Config{})
	var minAfterLoss = 1e9
	var watch func()
	watch = func() {
		if dropped && s.Window() < minAfterLoss {
			minAfterLoss = s.Window()
		}
		pp.sched.After(time.Millisecond, watch)
	}
	pp.sched.At(0, watch)
	pp.run(2 * time.Second)
	if s.Stats().FastRecov != 1 {
		t.Errorf("loss events = %d, want 1", s.Stats().FastRecov)
	}
	if minAfterLoss > 1.5 {
		t.Errorf("Tahoe window only dropped to %.1f after loss, want collapse to Winit", minAfterLoss)
	}
	if pp.sink.Stats().GoodputPackets < 500 {
		t.Errorf("goodput = %d, stalled", pp.sink.Stats().GoodputPackets)
	}
}

func TestTahoeTimeout(t *testing.T) {
	pp := newPipe(1, 10*time.Millisecond, 100*time.Microsecond, 0)
	blackout := false
	pp.dropData = func(h *pkt.TCPHeader) bool { return blackout }
	s := pp.connectTahoe(Config{})
	pp.sched.At(300*time.Millisecond, func() { blackout = true })
	pp.sched.At(900*time.Millisecond, func() { blackout = false })
	pp.run(3 * time.Second)
	if s.Stats().Timeouts == 0 {
		t.Error("no timeout during blackout")
	}
	if pp.sink.Stats().GoodputPackets < 1000 {
		t.Errorf("goodput = %d, did not resume", pp.sink.Stats().GoodputPackets)
	}
}

func TestDelayedAckSinkHalvesAckCount(t *testing.T) {
	r := newSinkRigPolicy(AckDelayed)
	for seq := int64(0); seq < 100; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	if got := len(r.acks); got != 50 {
		t.Errorf("delayed-ack sink sent %d acks for 100 packets, want 50", got)
	}
	last := r.acks[len(r.acks)-1]
	if last.TCP.Ack != 100 {
		t.Errorf("final cumulative ack = %d, want 100", last.TCP.Ack)
	}
}

func TestDelayedAckRegenerationOnLonePacket(t *testing.T) {
	r := newSinkRigPolicy(AckDelayed)
	r.sink.HandleData(r.data(0))
	if len(r.acks) != 0 {
		t.Fatalf("ack sent before delack timer, got %d", len(r.acks))
	}
	r.sched.RunUntil(2 * AckRegenTimeout)
	if len(r.acks) != 1 {
		t.Fatalf("acks after regen = %d, want 1", len(r.acks))
	}
	if r.acks[0].TCP.Ack != 1 {
		t.Errorf("regen ack = %d, want 1", r.acks[0].TCP.Ack)
	}
}

func TestDelayedAckOutOfOrderImmediate(t *testing.T) {
	r := newSinkRigPolicy(AckDelayed)
	r.sink.HandleData(r.data(0))
	r.sink.HandleData(r.data(1)) // ack fires (d=2)
	n := len(r.acks)
	r.sink.HandleData(r.data(3)) // gap: immediate dup ack
	if len(r.acks) != n+1 {
		t.Fatalf("no immediate ack on reorder")
	}
	if got := r.acks[len(r.acks)-1].TCP.Ack; got != 2 {
		t.Errorf("dup ack = %d, want 2", got)
	}
}

func TestSinkDelayHistogram(t *testing.T) {
	r := newSinkRigPolicy(AckEveryPacket)
	h := newDelayHist()
	r.sink.Delay = h
	p := r.data(0)
	p.TCP.SentAt = 0
	// Arrival "happens" at sched.Now()=0, so delay 0; advance the clock
	// via a scheduled handover for a real delay.
	r.sched.At(25*time.Millisecond, func() { r.sink.HandleData(p) })
	r.sched.Run()
	if h.N() != 1 {
		t.Fatalf("delay samples = %d, want 1", h.N())
	}
	if h.Mean() != 25*time.Millisecond {
		t.Errorf("delay = %v, want 25ms", h.Mean())
	}
}
