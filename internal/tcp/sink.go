package tcp

import (
	"fmt"
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/stats"
)

// AckPolicy selects how the sink generates acknowledgments.
type AckPolicy int

const (
	// AckEveryPacket acknowledges each in-order arrival immediately
	// (ns-2's default TCPSink; the paper's baseline).
	AckEveryPacket AckPolicy = iota
	// AckDelayed is the standard RFC 1122 delayed ACK: every second
	// packet, bounded by the regeneration timeout.
	AckDelayed
	// AckThinning is the Altman-Jiménez dynamic scheme evaluated by the
	// paper.
	AckThinning
)

func (p AckPolicy) String() string {
	switch p {
	case AckEveryPacket:
		return "every-packet"
	case AckDelayed:
		return "delayed"
	case AckThinning:
		return "thinning"
	}
	return fmt.Sprintf("policy(%d)", int(p))
}

// Dynamic ACK thinning thresholds of Altman & Jiménez as fixed by the
// paper (Section 3.2): the sink acknowledges every d-th packet where d
// ramps 1→4 as the received sequence number n passes S1, S2 and S3, backed
// by a 100 ms ACK-regeneration timeout that prevents sender stalls.
const (
	ThinningS1 = 2
	ThinningS2 = 5
	ThinningS3 = 9

	AckRegenTimeout = 100 * time.Millisecond
)

// ThinningDegree returns d for a received packet with sequence number n
// (packet granularity). Boundary values follow the paper: d=1 if n ≤ S1−1,
// then d=2 up to S2−1, d=3 up to S3−1, and d=4 from S3 on.
func ThinningDegree(n int64) int {
	switch {
	case n < ThinningS1:
		return 1
	case n < ThinningS2:
		return 2
	case n < ThinningS3:
		return 3
	default:
		return 4
	}
}

// SinkStats counts receiver-side events. GoodputPackets advances only on
// new in-order data, so retransmitted duplicates never inflate goodput.
type SinkStats struct {
	GoodputPackets int64 // cumulative first-time, in-order packets
	Duplicates     uint64
	OutOfOrder     uint64
	AcksSent       uint64
	RegenTimeouts  uint64
}

// Sink is the TCP receiver: it reassembles the in-order stream, generates
// cumulative ACKs under the configured policy, and accounts goodput.
type Sink struct {
	sched *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the sink
	out   Output
	uids  *pkt.Pool //manetsim:resetsafe pool binding; the pool resets itself

	flow     int
	src, dst pkt.NodeID // src = this sink's node, dst = the sender

	policy AckPolicy

	rcvNext int64
	buffer  map[int64]bool // out-of-order packets above rcvNext

	pending    int      // in-order packets received but not yet ACKed
	lastTS     sim.Time // SentAt of the most recent pending arrival
	regenTimer *sim.Timer
	// lastRtx is the Retransmit flag of the most recent data arrival,
	// copied out of the header: packets are pooled, so holding the header
	// pointer across events would read recycled memory.
	lastRtx      bool
	statsCurrent SinkStats

	// Delay, when set, records the end-to-end latency of every packet
	// that advances the in-order stream.
	Delay *stats.DurationHistogram
}

// NewSink creates a receiver for one flow. src is the sink's own node id,
// dst the sender's (where ACKs go). It ends with Reset.
func NewSink(sched *sim.Scheduler, flow int, src, dst pkt.NodeID, policy AckPolicy, uids *pkt.Pool, out Output) *Sink {
	s := &Sink{sched: sched, uids: uids, buffer: make(map[int64]bool)}
	s.regenTimer = sim.NewTimer(sched, s.onRegenTimeout)
	s.Reset(flow, src, dst, policy, out)
	return s
}

// Reset sets the sink up for a run, keeping the buffer map and the
// regeneration timer; NewSink ends with it. The flow identity and output
// are taken fresh for the same reason as Engine.Reset; the Delay hook is
// cleared for the owner to reinstall. On reuse, call after the scheduler
// was reset.
func (s *Sink) Reset(flow int, src, dst pkt.NodeID, policy AckPolicy, out Output) {
	if out == nil {
		panic("tcp: nil output")
	}
	s.out = out
	s.flow = flow
	s.src = src
	s.dst = dst
	s.policy = policy
	s.rcvNext = 0
	clear(s.buffer)
	s.pending = 0
	s.lastTS = 0
	s.regenTimer.Stop()
	s.lastRtx = false
	s.statsCurrent = SinkStats{}
	s.Delay = nil
}

// Halt suspends a sink whose host node crashed: the ACK-regeneration
// timer stops and the delayed-ACK aggregation state is dropped.
// Reassembly state (rcvNext, the out-of-order buffer) survives the
// outage, so a restarted node resumes the stream where it left off —
// the next data arrival re-triggers ACK generation, no Resume needed.
func (s *Sink) Halt() {
	s.regenTimer.Stop()
	s.pending = 0
}

// Stats snapshots receiver counters.
func (s *Sink) Stats() SinkStats { return s.statsCurrent }

// RcvNext returns the next expected sequence number.
func (s *Sink) RcvNext() int64 { return s.rcvNext }

// HandleData processes an arriving data packet.
func (s *Sink) HandleData(p *pkt.Packet) {
	h := p.TCP
	if h == nil {
		return
	}
	s.lastRtx = h.Retransmit
	switch {
	case h.Seq == s.rcvNext:
		if s.Delay != nil {
			s.Delay.Add(s.sched.Now() - h.SentAt)
		}
		s.rcvNext++
		s.statsCurrent.GoodputPackets++
		for s.buffer[s.rcvNext] {
			delete(s.buffer, s.rcvNext)
			s.rcvNext++
			s.statsCurrent.GoodputPackets++
		}
		s.onInOrder(h)
	case h.Seq < s.rcvNext:
		// Duplicate of already-delivered data: immediate ACK.
		s.statsCurrent.Duplicates++
		s.sendAck(h.SentAt)
	default:
		// Gap: buffer and emit an immediate duplicate ACK.
		s.statsCurrent.OutOfOrder++
		if !s.buffer[h.Seq] {
			s.buffer[h.Seq] = true
		} else {
			s.statsCurrent.Duplicates++
		}
		s.flushPendingEcho()
		s.sendAck(h.SentAt)
	}
}

// onInOrder applies the ACK policy to newly in-order data. Delayed
// policies acknowledge "every d-th packet" by sequence number (the packet
// whose 1-based number is a multiple of d), exactly as Altman & Jiménez
// describe — not after d pending arrivals. The distinction matters: with a
// window smaller than d, sequence-based ACKing still produces periodic
// immediate ACKs (whenever the window spans a multiple of d), which keeps
// clean RTT samples flowing and lets Vegas grow back out of the stall
// regime instead of pinning at the window floor.
func (s *Sink) onInOrder(h *pkt.TCPHeader) {
	if s.policy == AckEveryPacket {
		s.sendAck(h.SentAt)
		return
	}
	// Echo the timestamp of the packet that triggers the ACK, as
	// ns-2-era TCP does with its per-segment send times; echoing the
	// earliest pending timestamp would fold the aggregation wait into
	// every RTT sample.
	s.lastTS = h.SentAt
	s.pending++
	d := int64(2) // AckDelayed: standard every-second-packet
	if s.policy == AckThinning {
		d = int64(ThinningDegree(h.Seq))
	}
	if (h.Seq+1)%d == 0 {
		s.ackPending()
		return
	}
	if !s.regenTimer.Pending() {
		s.regenTimer.Reset(AckRegenTimeout)
	}
}

// ackPending emits the cumulative ACK covering all pending packets.
func (s *Sink) ackPending() {
	ts := s.lastTS
	s.pending = 0
	s.regenTimer.Stop()
	s.sendAckOpt(ts, false)
}

// flushPendingEcho drops the delayed-ACK state when an out-of-order
// arrival forces an immediate duplicate ACK.
func (s *Sink) flushPendingEcho() {
	if s.pending > 0 {
		s.ackPending()
	}
}

// onRegenTimeout fires when fewer than d packets arrived within the
// regeneration window: ACK whatever is pending so the sender keeps moving
// (the stall the paper analyses for Vegas-with-thinning at small windows).
func (s *Sink) onRegenTimeout() {
	if s.pending == 0 {
		return
	}
	s.statsCurrent.RegenTimeouts++
	// The regeneration ACK was not triggered by a data arrival, so its
	// timestamp would fold the stall wait into the sender's RTT estimate;
	// mark it no-echo (Karn's rule for ambiguous samples). Without this,
	// Vegas with thinning reads its own ACK stalls as congestion and
	// spirals into a 2-packet window.
	ts := s.lastTS
	s.pending = 0
	s.regenTimer.Stop()
	s.sendAckOpt(ts, true)
}

// sendAck emits a cumulative ACK echoing the given data timestamp.
func (s *Sink) sendAck(echo sim.Time) { s.sendAckOpt(echo, false) }

func (s *Sink) sendAckOpt(echo sim.Time, noEcho bool) {
	s.statsCurrent.AcksSent++
	p := s.uids.NewTCP()
	p.Kind = pkt.KindTCPAck
	p.Size = pkt.TCPAckSize
	p.Src = s.src
	p.Dst = s.dst
	p.TTL = 64
	p.TCP.Flow = s.flow
	p.TCP.Ack = s.rcvNext
	p.TCP.SentAt = echo
	p.TCP.NoEcho = noEcho
	// Echo whether the triggering data packet was a retransmission so the
	// sender can apply Karn's rule to the RTT sample.
	p.TCP.Retransmit = s.lastRtx
	s.out(p)
}
