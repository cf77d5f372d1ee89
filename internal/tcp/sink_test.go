package tcp

import (
	"testing"
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// sinkRig collects the ACKs a sink emits.
type sinkRig struct {
	sched *sim.Scheduler
	uids  pkt.Pool
	sink  *Sink
	acks  []*pkt.Packet
}

func newSinkRig(thinning bool) *sinkRig {
	policy := AckEveryPacket
	if thinning {
		policy = AckThinning
	}
	return newSinkRigPolicy(policy)
}

func newSinkRigPolicy(policy AckPolicy) *sinkRig {
	r := &sinkRig{sched: sim.NewScheduler(1)}
	r.sink = NewSink(r.sched, 1, 1, 0, policy, &r.uids, func(p *pkt.Packet) {
		r.acks = append(r.acks, p)
	})
	return r
}

func (r *sinkRig) data(seq int64) *pkt.Packet {
	return &pkt.Packet{
		UID: r.uids.Next(), Kind: pkt.KindTCPData, Size: pkt.TCPDataSize,
		Src: 0, Dst: 1,
		TCP: &pkt.TCPHeader{Flow: 1, Seq: seq, SentAt: r.sched.Now()},
	}
}

func TestSinkAcksEveryPacketInOrder(t *testing.T) {
	r := newSinkRig(false)
	for seq := int64(0); seq < 5; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	if len(r.acks) != 5 {
		t.Fatalf("acks = %d, want 5", len(r.acks))
	}
	for i, a := range r.acks {
		if a.TCP.Ack != int64(i+1) {
			t.Errorf("ack %d value = %d, want %d", i, a.TCP.Ack, i+1)
		}
	}
	if r.sink.Stats().GoodputPackets != 5 {
		t.Errorf("goodput = %d, want 5", r.sink.Stats().GoodputPackets)
	}
}

func TestSinkBuffersOutOfOrderAndDupAcks(t *testing.T) {
	r := newSinkRig(false)
	r.sink.HandleData(r.data(0))
	r.sink.HandleData(r.data(2)) // gap at 1
	r.sink.HandleData(r.data(3))
	if len(r.acks) != 3 {
		t.Fatalf("acks = %d, want 3", len(r.acks))
	}
	// Two duplicate ACKs with value 1.
	if r.acks[1].TCP.Ack != 1 || r.acks[2].TCP.Ack != 1 {
		t.Errorf("dup acks = %d,%d, want 1,1", r.acks[1].TCP.Ack, r.acks[2].TCP.Ack)
	}
	// Filling the hole releases everything.
	r.sink.HandleData(r.data(1))
	last := r.acks[len(r.acks)-1]
	if last.TCP.Ack != 4 {
		t.Errorf("cumulative ack after fill = %d, want 4", last.TCP.Ack)
	}
	if r.sink.Stats().GoodputPackets != 4 {
		t.Errorf("goodput = %d, want 4", r.sink.Stats().GoodputPackets)
	}
	if r.sink.Stats().OutOfOrder != 2 {
		t.Errorf("out-of-order count = %d, want 2", r.sink.Stats().OutOfOrder)
	}
}

func TestSinkDuplicateDataDoesNotInflateGoodput(t *testing.T) {
	r := newSinkRig(false)
	r.sink.HandleData(r.data(0))
	r.sink.HandleData(r.data(0))
	r.sink.HandleData(r.data(0))
	if r.sink.Stats().GoodputPackets != 1 {
		t.Errorf("goodput = %d, want 1", r.sink.Stats().GoodputPackets)
	}
	if r.sink.Stats().Duplicates != 2 {
		t.Errorf("duplicates = %d, want 2", r.sink.Stats().Duplicates)
	}
	// Every duplicate still produces an immediate ACK (dup ACK).
	if len(r.acks) != 3 {
		t.Errorf("acks = %d, want 3", len(r.acks))
	}
}

func TestThinningDegreeSchedule(t *testing.T) {
	// Paper: d ramps 1→4 at S1=2, S2=5, S3=9 (packet numbering).
	cases := []struct {
		seq  int64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 2}, {5, 3}, {7, 3}, {8, 3}, {9, 4}, {100, 4}}
	for _, c := range cases {
		if got := ThinningDegree(c.seq); got != c.want {
			t.Errorf("ThinningDegree(%d) = %d, want %d", c.seq, got, c.want)
		}
	}
}

func TestThinningSinkAckPattern(t *testing.T) {
	r := newSinkRig(true)
	for seq := int64(0); seq < 17; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	// seq 0 (d=1): ack. seq 1 (d=1): ack. seq 2,3 (d=2): ack at 3.
	// seq 4 (d=2): pending=1... seq 5 (d=3): pending 2; seq 6: pending 3 -> ack.
	// seq 7,8 (d=3,4): pending 2; seq 9..12: d=4 -> ack at pending 4 (seq 10).
	// etc. Exact positions depend on the mixed-degree ramp; assert the
	// aggregate: far fewer ACKs than packets, cumulative and increasing.
	if len(r.acks) >= 17 {
		t.Fatalf("thinning sent %d acks for 17 packets, want fewer", len(r.acks))
	}
	if len(r.acks) < 4 {
		t.Fatalf("thinning sent only %d acks, too aggressive", len(r.acks))
	}
	var prev int64
	for _, a := range r.acks {
		if a.TCP.Ack <= prev {
			t.Errorf("acks not strictly increasing: %d after %d", a.TCP.Ack, prev)
		}
		prev = a.TCP.Ack
	}
	// The tail is pending on the regeneration timer; after it fires the
	// stream is fully acknowledged.
	r.sched.RunUntil(r.sched.Now() + 2*AckRegenTimeout)
	if got := r.acks[len(r.acks)-1].TCP.Ack; got != 17 {
		t.Errorf("final cumulative ack = %d, want 17 after regeneration", got)
	}
}

func TestThinningSteadyStateIsEveryFourth(t *testing.T) {
	r := newSinkRig(true)
	// Warm past the ramp.
	for seq := int64(0); seq < 9; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	n := len(r.acks)
	for seq := int64(9); seq < 9+40; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	got := len(r.acks) - n
	if got != 10 {
		t.Errorf("steady-state acks for 40 packets = %d, want 10 (every 4th)", got)
	}
}

func TestThinningRegenerationTimeout(t *testing.T) {
	r := newSinkRig(true)
	// Get past the ramp so d=4.
	for seq := int64(0); seq < 12; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	n := len(r.acks)
	// One lone packet, then silence: the 100ms regeneration timer must
	// produce the ACK.
	r.sched.RunUntil(r.sched.Now() + time.Millisecond)
	r.sink.HandleData(r.data(12))
	r.sched.RunUntil(r.sched.Now() + 2*AckRegenTimeout)
	if len(r.acks) != n+1 {
		t.Fatalf("acks after lone packet = %d, want exactly one regen ack", len(r.acks)-n)
	}
	if r.sink.Stats().RegenTimeouts == 0 {
		t.Error("regen timeout counter not incremented")
	}
	if got := r.acks[len(r.acks)-1].TCP.Ack; got != 13 {
		t.Errorf("regen ack = %d, want 13", got)
	}
}

func TestThinningOutOfOrderForcesImmediateAck(t *testing.T) {
	r := newSinkRig(true)
	for seq := int64(0); seq < 10; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	n := len(r.acks)
	r.sink.HandleData(r.data(11)) // gap at 10
	if len(r.acks) <= n {
		t.Fatal("no immediate ack on out-of-order arrival")
	}
	if got := r.acks[len(r.acks)-1].TCP.Ack; got != 10 {
		t.Errorf("dup ack value = %d, want 10", got)
	}
}

func TestThinningEchoesTriggeringPacketTimestamp(t *testing.T) {
	r := newSinkRig(true)
	// Warm up to an ACK boundary: seq 0 (ack), 1 (ack), 2+3 (ack), 4+5+6
	// (ack) — pending is 0 after seq 6.
	for seq := int64(0); seq < 7; seq++ {
		r.sink.HandleData(r.data(seq))
	}
	n := len(r.acks)
	// Sequence-based thinning ACKs on multiples of d: seq 8 is packet
	// number 9 with d=3 (9 % 3 == 0), so the ACK fires there and echoes
	// that packet's timestamp — the sender's RTT sample excludes the
	// aggregation wait (the behaviour Vegas' diff computation depends on).
	stamps := []time.Duration{42 * time.Millisecond, 99 * time.Millisecond, 120 * time.Millisecond, 150 * time.Millisecond}
	for i, seq := range []int64{7, 8, 9, 10} {
		p := r.data(seq)
		p.TCP.SentAt = stamps[i]
		r.sink.HandleData(p)
	}
	if len(r.acks) != n+1 {
		t.Fatalf("acks for the group = %d, want 1", len(r.acks)-n)
	}
	if got := r.acks[len(r.acks)-1].TCP.SentAt; got != 99*time.Millisecond {
		t.Errorf("echoed timestamp = %v, want the triggering packet's (99ms, seq 8)", got)
	}
}

func TestSinkAckCountComparison(t *testing.T) {
	normal := newSinkRig(false)
	thin := newSinkRig(true)
	for seq := int64(0); seq < 100; seq++ {
		normal.sink.HandleData(normal.data(seq))
		thin.sink.HandleData(thin.data(seq))
	}
	if len(thin.acks) >= len(normal.acks)/2 {
		t.Errorf("thinning acks = %d vs normal %d, want well under half",
			len(thin.acks), len(normal.acks))
	}
}
