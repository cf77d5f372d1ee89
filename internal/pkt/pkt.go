// Package pkt defines the network-layer packet representation shared by
// every protocol layer: transport headers (TCP/UDP at ns-2-style packet
// granularity), AODV control headers, and the wire sizes the paper fixes
// (1460-byte TCP payloads).
package pkt

import (
	"fmt"
	"time"
)

// NodeID identifies a node in a scenario (its index in the topology).
type NodeID int

// Broadcast is the link-layer broadcast address used by routing control
// traffic.
const Broadcast NodeID = -1

// Wire sizes in bytes. The paper fixes the TCP payload at 1460 bytes; the
// 40-byte TCP/IP header puts a full data segment at 1500 bytes on the wire.
const (
	TCPPayloadSize = 1460
	TCPIPHeader    = 40
	TCPDataSize    = TCPPayloadSize + TCPIPHeader
	TCPAckSize     = TCPIPHeader
	UDPIPHeader    = 28
	UDPDataSize    = TCPPayloadSize + UDPIPHeader
)

// Kind classifies a packet for statistics and demultiplexing.
type Kind int

// Packet kinds.
const (
	KindTCPData Kind = iota + 1
	KindTCPAck
	KindUDPData
	KindRouting
)

var kindNames = map[Kind]string{
	KindTCPData: "tcp-data",
	KindTCPAck:  "tcp-ack",
	KindUDPData: "udp-data",
	KindRouting: "routing",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// IsData reports whether the packet kind carries application data (used by
// per-flow goodput accounting).
func (k Kind) IsData() bool { return k == KindTCPData || k == KindUDPData }

// TCPHeader carries transport state at packet granularity, exactly like
// ns-2's TCP agents: Seq and Ack count packets, not bytes.
type TCPHeader struct {
	Flow int   // flow identifier (connection demux key)
	Seq  int64 // data: packet sequence number, starting at 0
	Ack  int64 // ack: cumulative, next expected sequence number
	// SentAt is the transmission timestamp of the data packet, echoed back
	// in the ACK; Vegas uses it for fine-grained RTT measurements and
	// NewReno for RTO sampling (ns-2's timestamp option behaviour).
	SentAt time.Duration
	// NoEcho marks ACKs whose timestamp is ambiguous (emitted by the
	// delayed-ACK regeneration timer, not by a data arrival); senders
	// skip RTT sampling on them, mirroring Karn's rule.
	NoEcho bool
	// Retransmit marks transport-layer retransmissions for accounting.
	Retransmit bool
}

// UDPHeader carries the paced-UDP flow id and sequence number. SentAt is
// the transmission timestamp used for end-to-end delay accounting.
type UDPHeader struct {
	Flow   int
	Seq    int64
	SentAt time.Duration
}

// ControlType says which AODV message a Control header carries.
type ControlType uint8

// AODV control messages (RFC 3561 §5).
const (
	RREQ ControlType = iota + 1 // route request, flooded toward Dst
	RREP                        // route reply, unicast hop by hop back to Origin
	RERR                        // route error, broadcast to upstream neighbors
)

// Control is an AODV control header. The three messages share one struct,
// so a pooled block carries any of them in a single co-allocated slot;
// fields a message does not use stay zero.
type Control struct {
	Type      ControlType
	DstKnown  bool   // RREQ: whether DstSeq is meaningful
	ID        uint32 // RREQ: per-origin flood identifier
	OriginSeq uint32 // RREQ
	DstSeq    uint32 // RREQ, RREP
	Origin    NodeID // RREQ: flood origin; RREP: node the reply travels to
	Dst       NodeID // RREQ: sought node; RREP: node the route leads to
	HopCount  int    // RREQ: hops from Origin; RREP: hops from the replier to Dst
	// RERR: the destinations that became unreachable, with their
	// sequence numbers. A pooled block keeps the backing array across
	// recycles, so steady-state route errors do not allocate.
	Unreachable []Unreachable
}

// Unreachable is one RERR entry: a lost destination and its sequence number.
type Unreachable struct {
	Dst NodeID
	Seq uint32
}

// Packet is one network-layer datagram. Packets are passed by pointer and
// never mutated after construction except for hop-by-hop fields (TTL);
// layered headers are nil when absent.
//
// Packets built through a Pool are reference counted: the creator starts
// with one reference, every layer that keeps the packet beyond the current
// callback (the MAC handing it to the channel, a receiver delivering it up
// the stack) takes another with Retain, and every terminal consumption —
// sink delivery, queue drop, routing give-up — pairs with one Release.
// When the count reaches zero the block (packet plus its co-allocated
// header) returns to the pool. Packets built as plain literals (tests,
// external tools) have no pool; Retain/Release on them are no-ops.
type Packet struct {
	UID  uint64 // globally unique per scenario, for tracing
	Kind Kind
	Size int // bytes at the network layer (payload + IP + transport header)

	Src, Dst NodeID // end-to-end addresses
	TTL      int

	TCP     *TCPHeader
	UDP     *UDPHeader
	Routing *Control // AODV control header

	// Pool plumbing. Every header is co-allocated in the same block: a
	// pooled packet costs one allocation on first use and zero at steady
	// state, instead of separate packet+header allocations per
	// transmission.
	pool   *Pool
	refs   int32
	next   *Packet // freelist link
	ownTCP TCPHeader
	ownUDP UDPHeader
	ownCtl Control
}

// String renders a compact trace representation.
func (p *Packet) String() string {
	switch {
	case p.TCP != nil && p.Kind == KindTCPData:
		return fmt.Sprintf("#%d tcp-data f%d seq=%d %d->%d", p.UID, p.TCP.Flow, p.TCP.Seq, p.Src, p.Dst)
	case p.TCP != nil:
		return fmt.Sprintf("#%d tcp-ack f%d ack=%d %d->%d", p.UID, p.TCP.Flow, p.TCP.Ack, p.Src, p.Dst)
	case p.UDP != nil:
		return fmt.Sprintf("#%d udp f%d seq=%d %d->%d", p.UID, p.UDP.Flow, p.UDP.Seq, p.Src, p.Dst)
	default:
		return fmt.Sprintf("#%d %s %d->%d", p.UID, p.Kind, p.Src, p.Dst)
	}
}

// Pool hands out unique packet ids and recycled packet blocks for one
// scenario. The zero value is ready to use. Pools are not safe for
// concurrent use — exactly like the scheduler, one pool belongs to one
// single-threaded simulation.
type Pool struct {
	nextUID uint64
	// Every pooled packet draws an id, so the blocks in use are the ids
	// drawn, minus those Next drew for literal packets, minus the blocks
	// released; get keeps no count of its own.
	literal  uint64
	released uint64
	free     *Packet //manetsim:resetsafe Reset relinks every block onto it
	// blocks lists every block the pool ever made, so Reset can reclaim
	// the ones a stopped run still held.
	blocks []*Packet //manetsim:resetsafe the pool owns its blocks for life
}

// Next returns a fresh id for a packet built outside the pool (a
// literal); pooled packets draw theirs from the same sequence.
func (u *Pool) Next() uint64 {
	u.literal++
	u.nextUID++
	return u.nextUID
}

// Reset rewinds the pool for a new run: the id sequence restarts at 1 and
// every block the pool ever made goes back on the freelist, re-zeroed.
// That includes blocks the previous run still held (packets in flight when
// it stopped at its budget): a packet held across Reset is recycled, not
// orphaned, so every layer drops its packet references in its own Reset
// and never releases them afterwards.
func (u *Pool) Reset() {
	u.nextUID, u.literal, u.released = 0, 0, 0
	u.free = nil
	for _, p := range u.blocks {
		u.put(p)
	}
}

// Live returns the number of blocks handed out and not yet released: the
// blocks made minus the blocks free. It is zero after a drained run.
func (u *Pool) Live() int { return int(u.nextUID - u.literal - u.released) }

// get pops a recycled block (or allocates one) and stamps the common
// pooled-packet state. The UID is drawn here, so pooled construction keeps
// the exact id sequence of the old literal construction sites.
//
//manetsim:hotpath
func (u *Pool) get() *Packet {
	p := u.free
	if p != nil {
		u.free = p.next
		p.next = nil
	} else {
		p = &Packet{}
		u.blocks = append(u.blocks, p)
	}
	u.nextUID++
	p.UID = u.nextUID
	p.pool = u
	p.refs = 1
	return p
}

// put re-zeroes a block onto the freelist, keeping the RERR list's backing
// array, at length 0, for the next route error the block carries.
func (u *Pool) put(p *Packet) {
	*p = Packet{pool: u, next: u.free, ownCtl: Control{Unreachable: p.ownCtl.Unreachable[:0]}}
	u.free = p
}

// NewTCP returns a pooled packet with a zeroed co-allocated TCP header
// attached. The caller fills Kind, Size, addresses, TTL, and header fields.
func (u *Pool) NewTCP() *Packet {
	p := u.get()
	p.ownTCP = TCPHeader{}
	p.TCP = &p.ownTCP
	return p
}

// NewUDP returns a pooled packet with a zeroed co-allocated UDP header.
func (u *Pool) NewUDP() *Packet {
	p := u.get()
	p.ownUDP = UDPHeader{}
	p.UDP = &p.ownUDP
	return p
}

// NewRREQ returns a pooled routing packet with a zeroed co-allocated
// RREQ header; NewRREP and NewRERR do the same for the other two messages.
// The caller fills Size, addresses, TTL and the header fields.
func (u *Pool) NewRREQ() *Packet { return u.newControl(RREQ) }

// NewRREP returns a pooled routing packet with a zeroed RREP header.
func (u *Pool) NewRREP() *Packet { return u.newControl(RREP) }

// NewRERR returns a pooled routing packet with an RERR header whose
// Unreachable list is empty but keeps the capacity of the block's last
// route error.
func (u *Pool) NewRERR() *Packet { return u.newControl(RERR) }

func (u *Pool) newControl(t ControlType) *Packet {
	p := u.get()
	p.Kind = KindRouting
	p.ownCtl = Control{Type: t, Unreachable: p.ownCtl.Unreachable[:0]}
	p.Routing = &p.ownCtl
	return p
}

// Retain adds a reference to a pooled packet (no-op for literals).
func (p *Packet) Retain() {
	if p.pool != nil {
		p.refs++
	}
}

// Release drops one reference; the last release returns the block to its
// pool. Releasing a literal (non-pooled) packet is a no-op. Over-releasing
// panics — silently recycling a live packet would corrupt the simulation
// far from the bug.
//
//manetsim:hotpath
func (p *Packet) Release() {
	pl := p.pool
	if pl == nil {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.refs < 0 {
		panic(fmt.Sprintf("pkt: over-released packet #%d", p.UID))
	}
	pl.released++
	pl.put(p)
}
