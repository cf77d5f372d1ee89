package aodv

import (
	"time"

	"manetsim/internal/mac"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// Config parameterizes the protocol. The zero value selects the defaults
// in parentheses.
type Config struct {
	RREQRetries        int           // discovery attempts before giving up (3)
	RREQTimeout        time.Duration // first-attempt reply timeout, doubling per retry (500ms)
	ActiveRouteTimeout time.Duration // route lifetime without use (10s)
	BufferCap          int           // per-destination send buffer (64)
	SeenLifetime       time.Duration // RREQ duplicate-suppression window (5s)
	TTL                int           // flood diameter bound (128; must cover the longest path)
	MaxJitter          time.Duration // rebroadcast jitter (10ms)
}

func (c Config) withDefaults() Config {
	if c.RREQRetries == 0 {
		c.RREQRetries = 3
	}
	if c.RREQTimeout == 0 {
		c.RREQTimeout = 500 * time.Millisecond
	}
	if c.ActiveRouteTimeout == 0 {
		c.ActiveRouteTimeout = 10 * time.Second
	}
	if c.BufferCap == 0 {
		c.BufferCap = 64
	}
	if c.SeenLifetime == 0 {
		c.SeenLifetime = 5 * time.Second
	}
	if c.TTL == 0 {
		// RFC 3561 suggests NET_DIAMETER = 35, but the paper evaluates
		// chains up to 64 hops; the flood must span the whole network.
		c.TTL = 128
	}
	if c.MaxJitter == 0 {
		c.MaxJitter = 10 * time.Millisecond
	}
	return c
}

// Counters aggregates per-node routing statistics. FalseRouteFailures is
// the paper's Figure 9 metric: in a static network every link-layer
// failure notification tears down a route that is actually healthy. With
// mobility the same notification can be genuine — the next hop moved out
// of range — counted separately as TrueRouteFailures.
type Counters struct {
	RREQSent           uint64
	RREQForwarded      uint64
	RREPSent           uint64
	RREPForwarded      uint64
	RERRSent           uint64
	FalseRouteFailures uint64
	TrueRouteFailures  uint64 // teardowns where the next hop really was unreachable
	NoRouteDrops       uint64 // data dropped at an intermediate node without a route
	BufferDrops        uint64 // send-buffer overflow or discovery failure
	DiscoveryFailures  uint64
}

// rreqKey identifies one flood for duplicate suppression.
type rreqKey struct {
	origin pkt.NodeID
	id     uint32
}

// seenPruneFloor is the duplicate-suppression map size at which gcSeen
// starts pruning expired entries.
const seenPruneFloor = 4096

// discovery is the origin's route-discovery record for one destination.
// It is made on the first discovery toward dst, with its timer bound once,
// and reused by every later one; active says whether one is running.
type discovery struct {
	dst     pkt.NodeID
	timer   *sim.Timer
	retries int
	active  bool
}

// Router is the per-node AODV entity. It sits between the transport layer
// (Send) and the MAC (HandlePacket / HandleLinkFailure callbacks).
type Router struct {
	sched *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the router
	id    pkt.NodeID     //manetsim:resetsafe node identity is fixed at construction
	mac   *mac.DCF       //manetsim:resetsafe MAC wiring; the MAC resets itself
	cfg   Config
	uids  *pkt.Pool //manetsim:resetsafe pool binding; the pool resets itself

	table    *Table
	seqNo    uint32
	rreqID   uint32
	seen     map[rreqKey]sim.Time
	seenMark int // len(seen) at which gcSeen prunes next
	// Per-destination send buffers. A flushed buffer stays in the map at
	// length 0, so buffering toward a known destination does not allocate.
	buffer      map[pkt.NodeID][]*pkt.Packet
	spare       []*pkt.Packet //manetsim:resetsafe empty between calls; capacity handed between buffers on flush
	discoveries map[pkt.NodeID]*discovery
	lost        []pkt.Unreachable //manetsim:resetsafe scratch for the next RERR, overwritten before every use
	flushed     []*pkt.Packet     //manetsim:resetsafe scratch for a link failure's flushed queue, cleared after every use
	down        bool              // crashed by fault injection (see Deactivate)

	rebroadcast func(any) //manetsim:resetsafe bound once in New: enqueues a forwarded RREQ

	deliver func(p *pkt.Packet) //manetsim:resetsafe upward wiring to the node; rebound only on rebuild
	// DropData, if set, observes every data packet the router drops
	// (no-route, buffer overflow, discovery failure, link failure).
	DropData func(p *pkt.Packet)
	// LinkAlive, if set, is the omniscient link oracle used to classify MAC
	// give-ups: it reports whether the physical link to a neighbor is
	// currently usable. Without it (static scenarios) every link failure is
	// false by construction, matching the paper.
	LinkAlive func(nextHop pkt.NodeID) bool
	// OnRouteFailure, if set, observes every classified route teardown
	// (falseFailure follows the paper's definition: the MAC gave up on a
	// link that was actually healthy).
	OnRouteFailure func(falseFailure bool)

	Counters Counters
}

// New creates a router for node id. deliver receives packets addressed to
// this node. The router must be wired to the MAC by passing
// HandlePacket/HandleLinkFailure as the MAC callbacks. It ends with Reset.
func New(sched *sim.Scheduler, id pkt.NodeID, m *mac.DCF, uids *pkt.Pool, cfg Config, deliver func(p *pkt.Packet)) *Router {
	if deliver == nil {
		panic("aodv: deliver callback required")
	}
	r := &Router{
		sched:       sched,
		id:          id,
		mac:         m,
		uids:        uids,
		table:       NewTable(sched, 0),
		seen:        make(map[rreqKey]sim.Time),
		buffer:      make(map[pkt.NodeID][]*pkt.Packet),
		discoveries: make(map[pkt.NodeID]*discovery),
		deliver:     deliver,
	}
	r.rebroadcast = r.enqueueBroadcast
	r.Reset(cfg)
	return r
}

// enqueueBroadcast is the rebroadcast callback: it hands a forwarded RREQ,
// scheduled by handleRREQ after its jitter, to the MAC.
func (r *Router) enqueueBroadcast(p any) { r.mac.Enqueue(p.(*pkt.Packet), pkt.Broadcast) }

// Reset sets the router up for a run, keeping map capacity, send-buffer
// storage and discovery records; New ends with it. On reuse, call after
// the scheduler was reset: pending discovery timers are already stale, and
// buffered packets from the previous run belong to a pool that dropped
// them, so their references are simply forgotten. The optional hooks
// (DropData, LinkAlive, OnRouteFailure) are cleared; the owner reinstalls
// what it needs.
func (r *Router) Reset(cfg Config) {
	r.cfg = cfg.withDefaults()
	r.table.Reset(sim.Time(r.cfg.ActiveRouteTimeout))
	r.seqNo = 0
	r.rreqID = 0
	clear(r.seen)
	r.seenMark = seenPruneFloor
	for dst, q := range r.buffer {
		clear(q)
		r.buffer[dst] = q[:0]
	}
	r.stopDiscoveries()
	r.down = false
	r.DropData = nil
	r.LinkAlive = nil
	r.OnRouteFailure = nil
	r.Counters = Counters{}
}

// Deactivate crashes the router mid-run: pending discoveries stop,
// buffered packets are released, and the routing table plus duplicate
// state is wiped — a restarted node rediscovers every route from
// scratch, while its sequence number survives (monotone across reboots
// keeps neighbors' freshness comparisons sound). Counters are preserved
// so the run's cumulative batch deltas stay consistent.
func (r *Router) Deactivate() {
	r.down = true
	r.stopDiscoveries()
	for dst, q := range r.buffer {
		for _, p := range q {
			p.Release()
		}
		clear(q)
		r.buffer[dst] = q[:0]
	}
	r.table.Reset(sim.Time(r.cfg.ActiveRouteTimeout))
	clear(r.seen)
	r.seenMark = seenPruneFloor
}

// stopDiscoveries ends every running discovery, keeping the records.
func (r *Router) stopDiscoveries() {
	for _, d := range r.discoveries {
		d.timer.Stop()
		d.active = false
	}
}

// Activate restarts a crashed router with an empty table.
func (r *Router) Activate() { r.down = false }

// Table exposes the routing table (read-mostly; used by tests and tools).
func (r *Router) Table() *Table { return r.table }

// Send routes a locally originated packet: forward over a known route or
// buffer it and start a discovery.
func (r *Router) Send(p *pkt.Packet) {
	if r.down {
		// Crashed node: nothing originates while down.
		p.Release()
		return
	}
	if p.Dst == r.id {
		r.deliver(p)
		return
	}
	if rt := r.table.Lookup(p.Dst); rt != nil {
		r.table.Refresh(p.Dst)
		r.mac.Enqueue(p, rt.NextHop)
		return
	}
	r.bufferPacket(p)
	r.startDiscovery(p.Dst)
}

func (r *Router) bufferPacket(p *pkt.Packet) {
	q := r.buffer[p.Dst]
	if len(q) >= r.cfg.BufferCap {
		r.Counters.BufferDrops++
		r.dropData(q[0])
		q[0].Release()
		// Shift rather than reslice, so the buffer keeps its storage.
		n := copy(q, q[1:])
		q[n] = nil
		q = q[:n]
	}
	r.buffer[p.Dst] = append(q, p)
}

func (r *Router) dropData(p *pkt.Packet) {
	if p.Kind.IsData() || p.Kind == pkt.KindTCPAck {
		if r.DropData != nil {
			r.DropData(p)
		}
	}
}

// startDiscovery begins or continues a route discovery toward dst.
func (r *Router) startDiscovery(dst pkt.NodeID) {
	d := r.discoveries[dst]
	if d == nil {
		d = &discovery{dst: dst}
		d.timer = sim.NewTimer(r.sched, func() { r.discoveryTimeout(d) })
		r.discoveries[dst] = d
	} else if d.active {
		return // discovery already running
	}
	d.active = true
	d.retries = 0
	r.sendRREQ(d)
}

//manetsim:hotpath
func (r *Router) sendRREQ(d *discovery) {
	r.seqNo++
	r.rreqID++
	// Suppress our own flood coming back.
	r.seen[rreqKey{origin: r.id, id: r.rreqID}] = r.sched.Now() + sim.Time(r.cfg.SeenLifetime)
	p := r.uids.NewRREQ()
	p.Size = RREQSize
	p.Src = r.id
	p.Dst = pkt.Broadcast
	p.TTL = r.cfg.TTL
	req := p.Routing
	req.ID = r.rreqID
	req.Origin = r.id
	req.OriginSeq = r.seqNo
	req.Dst = d.dst
	if e := r.table.Entry(d.dst); e != nil {
		req.DstSeq = e.SeqNo
		req.DstKnown = true
	}
	r.Counters.RREQSent++
	r.mac.Enqueue(p, pkt.Broadcast)
	timeout := r.cfg.RREQTimeout << uint(d.retries)
	d.timer.Reset(sim.Time(timeout))
}

// discoveryTimeout retries the flood or gives up and flushes the buffer.
func (r *Router) discoveryTimeout(d *discovery) {
	if !d.active {
		return
	}
	d.retries++
	if d.retries < r.cfg.RREQRetries {
		r.sendRREQ(d)
		return
	}
	d.active = false
	r.Counters.DiscoveryFailures++
	q := r.buffer[d.dst]
	for _, p := range q {
		r.Counters.BufferDrops++
		r.dropData(p)
		p.Release()
	}
	clear(q)
	r.buffer[d.dst] = q[:0]
}

// HandlePacket is the MAC's Deliver callback: process routing control or
// forward/deliver data.
func (r *Router) HandlePacket(p *pkt.Packet, from pkt.NodeID) {
	if p.Kind == pkt.KindRouting {
		switch c := p.Routing; c.Type {
		case pkt.RREQ:
			r.handleRREQ(p, c, from)
		case pkt.RREP:
			r.handleRREP(c, from)
		case pkt.RERR:
			r.handleRERR(c, from)
		}
		// Control payloads are consumed in place (forwarding builds fresh
		// packets), so the delivered reference ends here.
		p.Release()
		return
	}
	if p.Dst == r.id {
		r.deliver(p)
		return
	}
	// Forward along the table; refresh the route and the reverse route.
	if rt := r.table.Lookup(p.Dst); rt != nil {
		r.table.Refresh(p.Dst)
		r.table.Refresh(p.Src)
		r.mac.Enqueue(p, rt.NextHop)
		return
	}
	// No route at an intermediate node: drop and tell the source. Copy the
	// destination out before releasing — the packet block may recycle.
	r.Counters.NoRouteDrops++
	dst := p.Dst
	r.dropData(p)
	p.Release()
	r.lost = append(r.lost[:0], pkt.Unreachable{Dst: dst, Seq: r.bumpedSeq(dst)})
	r.sendRERR(r.lost)
}

func (r *Router) bumpedSeq(dst pkt.NodeID) uint32 {
	if e := r.table.Entry(dst); e != nil {
		return e.SeqNo
	}
	return 0
}

//manetsim:hotpath
func (r *Router) handleRREQ(p *pkt.Packet, req *pkt.Control, from pkt.NodeID) {
	key := rreqKey{origin: req.Origin, id: req.ID}
	now := r.sched.Now()
	if exp, ok := r.seen[key]; ok && exp > now {
		return
	}
	r.seen[key] = now + sim.Time(r.cfg.SeenLifetime)
	r.gcSeen(now)

	// Reverse route to the origin through the previous hop.
	r.table.Update(req.Origin, from, req.HopCount+1, req.OriginSeq)
	if from != req.Origin {
		// Neighbor route for the last hop (hop count 1, unknown seq: use 0
		// only if absent).
		if r.table.Lookup(from) == nil {
			r.table.Update(from, from, 1, 0)
		}
	}

	if req.Dst == r.id {
		// Destination replies. RFC 3561 §6.6.1: sync to max(own seq, RREQ's
		// DstSeq), then increment when the requester already knew the
		// current value — each rediscovery round must produce a strictly
		// fresher route, or stale equal-sequence entries left around the
		// network (a mobility staple) keep outranking the new path.
		if req.DstKnown && seqGreater(req.DstSeq, r.seqNo) {
			r.seqNo = req.DstSeq
		}
		if req.DstKnown && req.DstSeq == r.seqNo {
			r.seqNo++
		}
		r.Counters.RREPSent++
		r.sendRREP(req.Origin, r.id, r.seqNo, 0, from)
		return
	}
	if rt := r.table.Lookup(req.Dst); rt != nil && (!req.DstKnown || !seqGreater(req.DstSeq, rt.SeqNo)) {
		// Intermediate node with a fresh-enough route replies on behalf of
		// the destination.
		r.Counters.RREPSent++
		r.sendRREP(req.Origin, req.Dst, rt.SeqNo, rt.HopCount, from)
		return
	}
	// Rebroadcast with jitter.
	if p.TTL <= 1 {
		return
	}
	np := r.uids.NewRREQ()
	np.Size = RREQSize
	np.Src = req.Origin
	np.Dst = pkt.Broadcast
	np.TTL = p.TTL - 1
	fwd := np.Routing
	fwd.ID = req.ID
	fwd.Origin = req.Origin
	fwd.OriginSeq = req.OriginSeq
	fwd.Dst = req.Dst
	fwd.DstSeq = req.DstSeq
	fwd.DstKnown = req.DstKnown
	fwd.HopCount = req.HopCount + 1
	r.Counters.RREQForwarded++
	jitter := sim.Time(r.sched.Rand().Int63n(int64(r.cfg.MaxJitter) + 1))
	r.sched.AfterFunc(jitter, r.rebroadcast, np)
}

// gcSeen prunes expired duplicate-suppression entries opportunistically to
// bound memory on long runs. Pruning starts at seenPruneFloor entries and
// runs again only once the map has doubled since the last prune, so a
// network with that many live floods is not rescanned on every RREQ.
func (r *Router) gcSeen(now sim.Time) {
	if len(r.seen) < r.seenMark {
		return
	}
	for k, exp := range r.seen {
		if exp <= now {
			delete(r.seen, k)
		}
	}
	r.seenMark = max(seenPruneFloor, 2*len(r.seen))
}

// sendRREP emits a reply toward origin through nextHop, originated
// (handleRREQ) or forwarded (handleRREP); the caller counts it.
//
//manetsim:hotpath
func (r *Router) sendRREP(origin, dst pkt.NodeID, dstSeq uint32, hopCount int, nextHop pkt.NodeID) {
	p := r.uids.NewRREP()
	p.Size = RREPSize
	p.Src = r.id
	p.Dst = origin
	p.TTL = r.cfg.TTL
	rep := p.Routing
	rep.Origin = origin
	rep.Dst = dst
	rep.DstSeq = dstSeq
	rep.HopCount = hopCount
	r.mac.Enqueue(p, nextHop)
}

//manetsim:hotpath
func (r *Router) handleRREP(rep *pkt.Control, from pkt.NodeID) {
	// Forward route to the replied destination.
	r.table.Update(rep.Dst, from, rep.HopCount+1, rep.DstSeq)
	if rep.Origin == r.id {
		// Discovery complete: flush buffered traffic.
		if d := r.discoveries[rep.Dst]; d != nil && d.active {
			d.timer.Stop()
			d.active = false
		}
		// Detach the buffer before resending: a packet that still finds no
		// route is buffered again, into the spare storage.
		q := r.buffer[rep.Dst]
		r.buffer[rep.Dst], r.spare = r.spare, nil
		for _, p := range q {
			r.Send(p)
		}
		clear(q)
		r.spare = q[:0]
		return
	}
	// Forward the RREP along the reverse route.
	rt := r.table.Lookup(rep.Origin)
	if rt == nil {
		return
	}
	r.Counters.RREPForwarded++
	r.sendRREP(rep.Origin, rep.Dst, rep.DstSeq, rep.HopCount+1, rt.NextHop)
}

func (r *Router) handleRERR(e *pkt.Control, from pkt.NodeID) {
	r.lost = r.lost[:0]
	for _, u := range e.Unreachable {
		rt := r.table.Entry(u.Dst)
		if rt != nil && rt.Valid && rt.NextHop == from {
			rt.Valid = false
			if seqGreater(u.Seq, rt.SeqNo) {
				rt.SeqNo = u.Seq
			}
			r.lost = append(r.lost, pkt.Unreachable{Dst: u.Dst, Seq: rt.SeqNo})
		}
	}
	if len(r.lost) > 0 {
		r.sendRERR(r.lost)
	}
}

// sendRERR broadcasts a route error for the given destinations, copying
// them into the packet block. Callers check lost is non-empty first: every
// packet drawn takes a UID.
//
//manetsim:hotpath
func (r *Router) sendRERR(lost []pkt.Unreachable) {
	p := r.uids.NewRERR()
	p.Size = RERRSize + 8*len(lost)
	p.Src = r.id
	p.Dst = pkt.Broadcast
	p.TTL = 1
	p.Routing.Unreachable = append(p.Routing.Unreachable, lost...)
	r.Counters.RERRSent++
	r.mac.Enqueue(p, pkt.Broadcast)
}

// HandleLinkFailure is the MAC's LinkFailure callback: the link layer gave
// up on nextHop. AODV cannot distinguish a genuine route break from
// contention on a healthy link, so either way it invalidates every route
// through that hop, drops the queued traffic, and broadcasts an RERR. The
// LinkAlive oracle only classifies the event for measurement: a teardown
// with the neighbor still in range is the paper's false route failure.
//
//manetsim:hotpath
func (r *Router) HandleLinkFailure(p *pkt.Packet, nextHop pkt.NodeID) {
	falseFailure := r.LinkAlive == nil || r.LinkAlive(nextHop)
	if falseFailure {
		r.Counters.FalseRouteFailures++
	} else {
		r.Counters.TrueRouteFailures++
	}
	if r.OnRouteFailure != nil {
		r.OnRouteFailure(falseFailure)
	}
	r.lost = r.table.InvalidateNextHop(nextHop, r.lost)

	// Drop the failed packet and everything queued behind it for the same
	// next hop.
	r.dropData(p)
	p.Release()
	r.flushed = r.mac.FilterQueue(nextHop, r.flushed[:0])
	for _, fp := range r.flushed {
		r.dropData(fp)
		fp.Release()
	}
	clear(r.flushed)
	if len(r.lost) > 0 {
		r.sendRERR(r.lost)
	}
}
