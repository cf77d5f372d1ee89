// Package node assembles the per-node protocol stack: radio (PHY), 802.11
// DCF (MAC), a routing entity (AODV or static), and the transport endpoints
// (TCP senders/sinks, paced-UDP sources/sinks) demultiplexed by flow id.
// It also carries the node's energy accounting.
package node

import (
	"fmt"
	"time"

	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/tcp"
	"manetsim/internal/udp"
)

// Router abstracts the routing layer (aodv.Router or aodv.StaticRouter).
type Router interface {
	// Send routes a locally originated packet.
	Send(p *pkt.Packet)
	// HandlePacket processes a packet handed up by the MAC.
	HandlePacket(p *pkt.Packet, from pkt.NodeID)
	// HandleLinkFailure reacts to MAC retry exhaustion.
	HandleLinkFailure(p *pkt.Packet, nextHop pkt.NodeID)
}

// Power is a radio power model in watts per state.
type Power struct {
	Tx, Rx, Idle float64
}

// DefaultPower holds WaveLAN-class consumption constants (W).
var DefaultPower = Power{Tx: 1.4, Rx: 0.9, Idle: 0.74}

// Node is one network node with its full protocol stack. Create with New,
// then install a Router with SetRouter before traffic flows.
type Node struct {
	ID     pkt.NodeID //manetsim:resetsafe node identity is fixed at construction
	Radio  *phy.Radio //manetsim:resetsafe radio wiring; the channel resets radios
	MAC    *mac.DCF
	router Router

	sched *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the node

	tcpSenders map[int]*tcp.Engine
	tcpSinks   map[int]*tcp.Sink
	udpSinks   map[int]*udp.Sink

	// output is the cached transport-layer output closure (see Output). It
	// reads n.router dynamically, so it survives router swaps and resets.
	output func(p *pkt.Packet) //manetsim:resetsafe cached closure reads n.router dynamically, so it survives resets

	// OnFlowDelivery observes per-flow goodput advancement (new in-order
	// packets at a local sink). The core layer uses it for batch breaks.
	OnFlowDelivery func(flow int, packets int64)
}

// New creates a node over the given radio and wires the MAC (configured
// by macCfg) to the (later installed) router. It ends with Reset.
func New(sched *sim.Scheduler, radio *phy.Radio, macCfg mac.Config) *Node {
	n := &Node{
		ID:         radio.ID(),
		Radio:      radio,
		sched:      sched,
		tcpSenders: make(map[int]*tcp.Engine),
		tcpSinks:   make(map[int]*tcp.Sink),
		udpSinks:   make(map[int]*udp.Sink),
	}
	n.MAC = mac.New(sched, radio, macCfg, mac.Callbacks{
		Deliver: func(p *pkt.Packet, from pkt.NodeID) {
			n.mustRouter().HandlePacket(p, from)
		},
		LinkFailure: func(p *pkt.Packet, nextHop pkt.NodeID) {
			n.mustRouter().HandleLinkFailure(p, nextHop)
		},
	})
	n.Reset(macCfg)
	return n
}

// SetRouter installs the routing entity. The router's local-delivery
// callback must be the node's Deliver method.
func (n *Node) SetRouter(r Router) { n.router = r }

// Router returns the installed routing entity.
func (n *Node) Router() Router { return n.mustRouter() }

func (n *Node) mustRouter() Router {
	if n.router == nil {
		panic(fmt.Sprintf("node %d: router not installed", n.ID))
	}
	return n.router
}

// Reset sets the node up for a run over its (already reset) radio: the
// router is detached, the flow endpoints unregistered (so Attach* accepts
// the new run's flows), the delivery hook cleared, and the MAC reset —
// which also re-installs the MAC as the radio's handler.
func (n *Node) Reset(macCfg mac.Config) {
	n.router = nil
	clear(n.tcpSenders)
	clear(n.tcpSinks)
	clear(n.udpSinks)
	n.OnFlowDelivery = nil
	n.MAC.Reset(macCfg)
}

// Output returns the transport-layer output function: packets go to the
// routing layer. The closure is built once per node and cached, so
// transport endpoints bound to it across arena reuse keep a stable, valid
// binding (it resolves the router at call time).
func (n *Node) Output() func(p *pkt.Packet) {
	if n.output == nil {
		n.output = func(p *pkt.Packet) { n.mustRouter().Send(p) }
	}
	return n.output
}

// AttachTCPSender registers a sender for a flow originating here.
func (n *Node) AttachTCPSender(flow int, s *tcp.Engine) {
	if _, dup := n.tcpSenders[flow]; dup {
		panic(fmt.Sprintf("node %d: duplicate TCP sender for flow %d", n.ID, flow))
	}
	n.tcpSenders[flow] = s
}

// AttachTCPSink registers a receiver for a flow terminating here.
func (n *Node) AttachTCPSink(flow int, s *tcp.Sink) {
	if _, dup := n.tcpSinks[flow]; dup {
		panic(fmt.Sprintf("node %d: duplicate TCP sink for flow %d", n.ID, flow))
	}
	n.tcpSinks[flow] = s
}

// AttachUDPSink registers a paced-UDP receiver for a flow terminating here.
func (n *Node) AttachUDPSink(flow int, s *udp.Sink) {
	if _, dup := n.udpSinks[flow]; dup {
		panic(fmt.Sprintf("node %d: duplicate UDP sink for flow %d", n.ID, flow))
	}
	n.udpSinks[flow] = s
}

// Deliver is the routing layer's local-delivery callback: demultiplex to
// the transport endpoint for the packet's flow. The endpoint consumes the
// packet synchronously; Deliver drops the delivered reference afterwards so
// pooled packets recycle (endpoints must copy, not keep, header state).
func (n *Node) Deliver(p *pkt.Packet) {
	defer p.Release()
	switch p.Kind {
	case pkt.KindTCPData:
		if sink := n.tcpSinks[p.TCP.Flow]; sink != nil {
			before := sink.Stats().GoodputPackets
			sink.HandleData(p)
			if d := sink.Stats().GoodputPackets - before; d > 0 && n.OnFlowDelivery != nil {
				n.OnFlowDelivery(p.TCP.Flow, d)
			}
		}
	case pkt.KindTCPAck:
		if s := n.tcpSenders[p.TCP.Flow]; s != nil {
			s.HandleAck(p)
		}
	case pkt.KindUDPData:
		if sink := n.udpSinks[p.UDP.Flow]; sink != nil {
			before := sink.Received
			sink.HandleData(p)
			if d := sink.Received - before; d > 0 && n.OnFlowDelivery != nil {
				n.OnFlowDelivery(p.UDP.Flow, d)
			}
		}
	}
}

// EnergyJoules integrates the power model over the node's radio states up
// to the elapsed simulated time.
func (n *Node) EnergyJoules(p Power, elapsed time.Duration) float64 {
	tx := n.Radio.TxTime().Seconds()
	rx := n.Radio.RxTime().Seconds()
	idle := elapsed.Seconds() - tx - rx
	if idle < 0 {
		idle = 0
	}
	return p.Tx*tx + p.Rx*rx + p.Idle*idle
}
