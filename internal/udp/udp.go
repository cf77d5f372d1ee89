// Package udp implements the paper's optimally paced UDP reference
// transport: a constant-bit-rate source emitting 1460-byte packets at a
// fixed inter-packet gap, and a counting sink. The source neither
// retransmits nor adapts; sweeping the gap and taking the goodput maximum
// (Figure 10) gives the optimum any transport protocol could reach over
// the same channel.
package udp

import (
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/stats"
)

// Sender is the paced (CBR) UDP source.
type Sender struct {
	sched *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the sender
	out   func(p *pkt.Packet)
	uids  *pkt.Pool //manetsim:resetsafe pool binding; the pool resets itself

	flow     int
	src, dst pkt.NodeID
	gap      time.Duration
	timer    *sim.Timer

	nextSeq int64
	Sent    int64
}

// NewSender creates a paced source emitting one packet every gap; it ends
// with Reset.
func NewSender(sched *sim.Scheduler, flow int, src, dst pkt.NodeID, gap time.Duration, uids *pkt.Pool, out func(p *pkt.Packet)) *Sender {
	s := &Sender{sched: sched, uids: uids}
	s.timer = sim.NewTimer(sched, s.tick)
	s.Reset(flow, src, dst, gap, out)
	return s
}

// Reset sets the source up for a run over its scheduler, keeping the
// timer; NewSender ends with it. The flow identity, gap and output are
// taken fresh. On reuse, call after the scheduler was reset.
func (s *Sender) Reset(flow int, src, dst pkt.NodeID, gap time.Duration, out func(p *pkt.Packet)) {
	if out == nil {
		panic("udp: nil output")
	}
	s.out = out
	s.flow = flow
	s.src = src
	s.dst = dst
	s.SetGap(gap)
	s.timer.Stop()
	s.nextSeq = 0
	s.Sent = 0
}

// Start begins paced transmission.
func (s *Sender) Start() { s.tick() }

// Stop halts the source.
func (s *Sender) Stop() { s.timer.Stop() }

// SetGap changes the pacing interval from the next packet on.
func (s *Sender) SetGap(gap time.Duration) {
	if gap <= 0 {
		panic("udp: non-positive pacing gap")
	}
	s.gap = gap
}

func (s *Sender) tick() {
	p := s.uids.NewUDP()
	p.Kind = pkt.KindUDPData
	p.Size = pkt.UDPDataSize
	p.Src = s.src
	p.Dst = s.dst
	p.TTL = 64
	p.UDP.Flow = s.flow
	p.UDP.Seq = s.nextSeq
	p.UDP.SentAt = s.sched.Now()
	s.nextSeq++
	s.Sent++
	s.out(p)
	s.timer.Reset(s.gap)
}

// Sink counts received packets; duplicates (same sequence seen twice,
// possible only through MAC anomalies) are excluded from goodput.
type Sink struct {
	sched *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the sink

	Received int64 // distinct packets received
	Dups     int64
	highest  int64
	seen     map[int64]bool

	// Delay, when set, records one-way packet latency.
	Delay *stats.DurationHistogram
}

// NewSink creates a counting sink on the scheduler's clock: the dedup
// map, then Reset.
func NewSink(sched *sim.Scheduler) *Sink {
	s := &Sink{sched: sched, seen: make(map[int64]bool)}
	s.Reset()
	return s
}

// Reset sets the sink up for a run, keeping the dedup map's capacity;
// NewSink ends with it. The Delay hook is cleared for the owner to
// reinstall.
func (s *Sink) Reset() {
	s.Received = 0
	s.Dups = 0
	s.highest = -1
	clear(s.seen)
	s.Delay = nil
}

// HandleData processes one arriving packet.
func (s *Sink) HandleData(p *pkt.Packet) {
	if p.UDP == nil {
		return
	}
	seq := p.UDP.Seq
	if s.seen[seq] {
		s.Dups++
		return
	}
	s.seen[seq] = true
	if seq > s.highest {
		s.highest = seq
	}
	s.Received++
	if s.Delay != nil {
		s.Delay.Add(s.sched.Now() - p.UDP.SentAt)
	}
	// Trim the dedup set: anything far below the highest sequence can no
	// longer arrive (bounded reordering), so drop it to bound memory.
	if len(s.seen) > 4096 {
		for k := range s.seen {
			if k < s.highest-2048 {
				delete(s.seen, k)
			}
		}
	}
}
