package tcp

import (
	"math/rand"
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/stats"
)

// pipe is a test harness connecting a sender and a sink through a
// single-bottleneck path: data packets pass a FIFO queue with a fixed
// per-packet service time and then a one-way propagation delay; ACKs
// return over an uncongested path. This produces the RTT inflation Vegas'
// congestion detection needs, without involving the MAC stack.
type pipe struct {
	sched   *sim.Scheduler
	uids    pkt.Pool
	delay   time.Duration // one-way propagation each way
	service time.Duration // bottleneck per-packet service time
	qcap    int           // bottleneck queue capacity (0 = unbounded)

	dropData func(h *pkt.TCPHeader) bool // programmable loss on the data path
	dropAck  func(h *pkt.TCPHeader) bool

	lastDeparture sim.Time
	sender        *Engine
	sink          *Sink

	dataDelivered int
	dataDropped   int
}

func newPipe(seed int64, delay, service time.Duration, qcap int) *pipe {
	return &pipe{
		sched:   sim.NewScheduler(seed),
		delay:   delay,
		service: service,
		qcap:    qcap,
	}
}

// dataOut is the sender's Output.
func (pp *pipe) dataOut(p *pkt.Packet) {
	if pp.dropData != nil && pp.dropData(p.TCP) {
		pp.dataDropped++
		return
	}
	now := pp.sched.Now()
	start := pp.lastDeparture
	if start < now {
		start = now
	}
	if pp.qcap > 0 {
		queued := int((start - now) / pp.service)
		if queued >= pp.qcap {
			pp.dataDropped++
			return
		}
	}
	departure := start + pp.service
	pp.lastDeparture = departure
	pp.sched.At(departure+pp.delay, func() {
		pp.dataDelivered++
		pp.sink.HandleData(p)
	})
}

// ackOut is the sink's Output.
func (pp *pipe) ackOut(p *pkt.Packet) {
	if pp.dropAck != nil && pp.dropAck(p.TCP) {
		return
	}
	pp.sched.After(pp.delay, func() { pp.sender.HandleAck(p) })
}

// connect wires an engine with the given strategy and a per-packet-ACK
// sink into the pipe.
func (pp *pipe) connect(cfg Config, cc CongestionControl) *Engine {
	e := NewEngine(pp.sched, cfg, 1, 0, 1, &pp.uids, pp.dataOut, cc)
	pp.sender = e
	pp.sink = NewSink(pp.sched, 1, 1, 0, AckEveryPacket, &pp.uids, pp.ackOut)
	return e
}

// connectNewReno wires a NewReno sender and a per-packet-ACK sink.
func (pp *pipe) connectNewReno(cfg Config) *Engine {
	return pp.connect(cfg, NewNewRenoCC())
}

// vegasRig exposes the Vegas strategy next to its engine for white-box
// tests.
type vegasRig struct {
	*Engine
	cc *VegasCC
}

// connectVegas wires a Vegas sender and a per-packet-ACK sink.
func (pp *pipe) connectVegas(cfg Config) *vegasRig {
	cc := NewVegasCC()
	return &vegasRig{Engine: pp.connect(cfg, cc), cc: cc}
}

// connectReno wires a classic Reno sender and a per-packet-ACK sink.
func (pp *pipe) connectReno(cfg Config) *Engine {
	return pp.connect(cfg, NewRenoCC1990())
}

// connectTahoe wires a Tahoe sender and a per-packet-ACK sink.
func (pp *pipe) connectTahoe(cfg Config) *Engine {
	return pp.connect(cfg, NewTahoeCC())
}

// run starts the transfer and runs for d of simulated time.
func (pp *pipe) run(d time.Duration) {
	pp.sched.At(0, func() { pp.sender.Start() })
	pp.sched.RunUntil(d)
}

// newDelayHist builds a small deterministic histogram for sink tests.
func newDelayHist() *stats.DurationHistogram {
	rng := rand.New(rand.NewSource(1))
	return stats.NewDurationHistogram(128, rng.Int63n)
}
