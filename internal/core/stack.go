package core

import (
	"time"

	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/tcp"
	"manetsim/internal/udp"
)

// router is the routing layer a stack installs (aodv.Router or
// aodv.StaticRouter).
type router interface {
	// Send routes a locally originated packet.
	Send(p *pkt.Packet)
	// HandlePacket processes a packet handed up by the MAC.
	HandlePacket(p *pkt.Packet, from pkt.NodeID)
	// HandleLinkFailure reacts to MAC retry exhaustion.
	HandleLinkFailure(p *pkt.Packet, nextHop pkt.NodeID)
}

// stack is one node's protocol stack: the radio, the 802.11 DCF over it,
// and the router build installs each run. The MAC's upcalls and the
// transport output read the router at call time, so they are bound once
// and survive every run the stack is reused for.
type stack struct {
	radio  *phy.Radio
	mac    *mac.DCF
	router router
	output func(p *pkt.Packet) // transport-layer output: into the router
}

// newStack wires a stack over radio; build installs its router.
func newStack(sched *sim.Scheduler, radio *phy.Radio, macCfg mac.Config) *stack {
	st := &stack{radio: radio}
	st.mac = mac.New(sched, radio, macCfg, mac.Callbacks{
		Deliver:     func(p *pkt.Packet, from pkt.NodeID) { st.router.HandlePacket(p, from) },
		LinkFailure: func(p *pkt.Packet, nextHop pkt.NodeID) { st.router.HandleLinkFailure(p, nextHop) },
	})
	st.output = func(p *pkt.Packet) { st.router.Send(p) }
	return st
}

// WaveLAN-class radio power draw per state, in watts.
const (
	txWatts   = 1.4
	rxWatts   = 0.9
	idleWatts = 0.74
)

// energyJoules integrates the radio power model over the stack's radio
// states up to the elapsed simulated time.
func (st *stack) energyJoules(elapsed time.Duration) float64 {
	tx := st.radio.TxTime().Seconds()
	rx := st.radio.RxTime().Seconds()
	idle := elapsed.Seconds() - tx - rx
	if idle < 0 {
		idle = 0
	}
	return txWatts*tx + rxWatts*rx + idleWatts*idle
}

// flowSlot is one flow's transport endpoints. A slot keeps every endpoint
// it has ever built, so a World reuses them across runs whatever transport
// or flow count came in between; udp says which pair this run uses.
type flowSlot struct {
	udp   bool // this run uses usrc/usink; otherwise eng/sink
	eng   *tcp.Engine
	sink  *tcp.Sink
	usrc  *udp.Sender
	usink *udp.Sink

	state   uint8  // application state the fault hooks drive (flowNotStarted, ...)
	lastRtx uint64 // engine retransmissions at the previous batch boundary
}

// Per-flow application states driven by the fault hooks: a flow whose
// start time arrived while its source was down is due (it launches at
// restore), a running flow whose source crashes is halted (it resumes at
// restore, congestion state cold).
const (
	flowNotStarted uint8 = iota
	flowRunning
	flowHalted
	flowDue
)

// start launches the flow's source.
func (sl *flowSlot) start() {
	sl.state = flowRunning
	if sl.udp {
		sl.usrc.Start()
	} else {
		sl.eng.Start()
	}
}

// halt takes down the flow's endpoints on crashed node id: a running
// source stops until restore, and a TCP sink stops acknowledging.
func (sl *flowSlot) halt(f *Flow, id pkt.NodeID) {
	if f.Src == id && sl.state == flowRunning {
		sl.state = flowHalted
		if sl.udp {
			sl.usrc.Stop()
		} else {
			sl.eng.Halt()
		}
	}
	if f.Dst == id && !sl.udp {
		sl.sink.Halt()
	}
}

// resume brings the source back when its node restarts: a halted flow
// resumes from its first unacknowledged packet with cold congestion state,
// and a flow whose start time passed during the outage launches now.
func (sl *flowSlot) resume() {
	switch sl.state {
	case flowHalted:
		sl.state = flowRunning
		if sl.udp {
			sl.usrc.Start()
		} else {
			sl.eng.Resume()
		}
	case flowDue:
		sl.start()
	}
}

// deliverLocal is every router's local-delivery callback: it hands the
// packet to its flow's endpoint and reports new in-order goodput to
// onDelivery. The endpoint consumes the packet synchronously; the
// delivered reference is dropped afterwards so pooled packets recycle
// (endpoints copy, never keep, header state).
//
//manetsim:hotpath
func (s *scenarioState) deliverLocal(p *pkt.Packet) {
	defer p.Release()
	switch p.Kind {
	case pkt.KindTCPData:
		sink := s.slots[p.TCP.Flow].sink
		before := sink.Stats().GoodputPackets
		sink.HandleData(p)
		if d := sink.Stats().GoodputPackets - before; d > 0 {
			s.onDelivery(p.TCP.Flow, d)
		}
	case pkt.KindTCPAck:
		s.slots[p.TCP.Flow].eng.HandleAck(p)
	case pkt.KindUDPData:
		sink := s.slots[p.UDP.Flow].usink
		before := sink.Received
		sink.HandleData(p)
		if d := sink.Received - before; d > 0 {
			s.onDelivery(p.UDP.Flow, d)
		}
	}
}
