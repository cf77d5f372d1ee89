package udp

import (
	"testing"
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/stats"
)

func TestPacedSenderEmitsAtGap(t *testing.T) {
	sched := sim.NewScheduler(1)
	var uids pkt.Pool
	var times []sim.Time
	s := NewSender(sched, 1, 0, 7, 10*time.Millisecond, &uids, func(p *pkt.Packet) {
		times = append(times, sched.Now())
		if p.Kind != pkt.KindUDPData || p.Size != pkt.UDPDataSize {
			t.Errorf("bad packet %v size %d", p.Kind, p.Size)
		}
	})
	sched.At(0, s.Start)
	sched.RunUntil(95 * time.Millisecond)
	if len(times) != 10 {
		t.Fatalf("sent %d packets in 95ms at 10ms gap, want 10", len(times))
	}
	for i := 1; i < len(times); i++ {
		if times[i]-times[i-1] != 10*time.Millisecond {
			t.Errorf("gap %d = %v, want 10ms", i, times[i]-times[i-1])
		}
	}
	if s.Sent != 10 {
		t.Errorf("Sent = %d, want 10", s.Sent)
	}
}

func TestPacedSenderStop(t *testing.T) {
	sched := sim.NewScheduler(1)
	var uids pkt.Pool
	count := 0
	s := NewSender(sched, 1, 0, 7, 10*time.Millisecond, &uids, func(*pkt.Packet) { count++ })
	sched.At(0, s.Start)
	sched.At(35*time.Millisecond, s.Stop)
	sched.Run()
	if count != 4 { // t=0,10,20,30
		t.Errorf("sent %d packets before stop, want 4", count)
	}
}

func TestPacedSenderSetGap(t *testing.T) {
	sched := sim.NewScheduler(1)
	var uids pkt.Pool
	var times []sim.Time
	s := NewSender(sched, 1, 0, 7, 10*time.Millisecond, &uids, func(*pkt.Packet) {
		times = append(times, sched.Now())
	})
	sched.At(0, s.Start)
	sched.At(5*time.Millisecond, func() { s.SetGap(20 * time.Millisecond) })
	sched.RunUntil(70 * time.Millisecond)
	// t=0 (gap 10 -> next 10), then 20ms gaps: 10,30,50,70.
	want := []sim.Time{0, 10 * time.Millisecond, 30 * time.Millisecond, 50 * time.Millisecond, 70 * time.Millisecond}
	if len(times) != len(want) {
		t.Fatalf("times = %v, want %v", times, want)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
}

func TestSenderPanicsOnBadArgs(t *testing.T) {
	sched := sim.NewScheduler(1)
	var uids pkt.Pool
	for name, fn := range map[string]func(){
		"zero gap": func() { NewSender(sched, 1, 0, 1, 0, &uids, func(*pkt.Packet) {}) },
		"nil out":  func() { NewSender(sched, 1, 0, 1, time.Millisecond, &uids, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestSinkCountsDistinctPackets(t *testing.T) {
	s := NewSink(sim.NewScheduler(1))
	var uids pkt.Pool
	mk := func(seq int64) *pkt.Packet {
		return &pkt.Packet{UID: uids.Next(), Kind: pkt.KindUDPData, UDP: &pkt.UDPHeader{Flow: 1, Seq: seq}}
	}
	s.HandleData(mk(0))
	s.HandleData(mk(1))
	s.HandleData(mk(1)) // duplicate
	s.HandleData(mk(5)) // reordering/loss holes are fine
	if s.Received != 3 {
		t.Errorf("received = %d, want 3", s.Received)
	}
	if s.Dups != 1 {
		t.Errorf("dups = %d, want 1", s.Dups)
	}
}

func TestSinkDedupSetBounded(t *testing.T) {
	s := NewSink(sim.NewScheduler(1))
	for seq := int64(0); seq < 10000; seq++ {
		s.HandleData(&pkt.Packet{UDP: &pkt.UDPHeader{Seq: seq}})
	}
	if s.Received != 10000 {
		t.Errorf("received = %d, want 10000", s.Received)
	}
	if len(s.seen) > 5000 {
		t.Errorf("dedup set grew to %d entries; trimming broken", len(s.seen))
	}
}

func TestSinkRecordsDelayOnSchedulerClock(t *testing.T) {
	sched := sim.NewScheduler(1)
	s := NewSink(sched)
	s.Delay = stats.NewDurationHistogram(16, sched.Rand().Int63n)
	p := &pkt.Packet{Kind: pkt.KindUDPData, UDP: &pkt.UDPHeader{SentAt: 2 * time.Millisecond}}
	sched.At(7*time.Millisecond, func() { s.HandleData(p) })
	sched.Run()
	if s.Delay.N() != 1 || s.Delay.Max() != 5*time.Millisecond {
		t.Errorf("delay samples %d, max %v; want one of 5ms", s.Delay.N(), s.Delay.Max())
	}
}
