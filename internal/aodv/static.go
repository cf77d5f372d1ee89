package aodv

import (
	"fmt"

	"manetsim/internal/mac"
	"manetsim/internal/pkt"
)

// StaticRouter is a drop-in replacement for Router that uses precomputed
// shortest-path (minimum hop) routes and never reacts to link failures.
// It isolates AODV's contribution to the paper's results — the
// `BenchmarkAblationStaticRoutes` experiment — and is handy in unit tests.
type StaticRouter struct {
	id      pkt.NodeID          //manetsim:resetsafe node identity is fixed at construction
	mac     *mac.DCF            //manetsim:resetsafe MAC wiring; the MAC resets itself
	next    []pkt.NodeID        //manetsim:resetsafe precomputed routes; owner checks placement is unchanged before reuse
	deliver func(p *pkt.Packet) //manetsim:resetsafe upward wiring to the node; rebound only on rebuild
	// DropData observes data packets dropped for lack of a path or by
	// link-layer failure (no retransmission happens at this layer).
	DropData func(p *pkt.Packet)

	Counters Counters
}

// NewStatic builds a static router for node id over the graph whose
// adjacency lists are adj (geo.Neighbors of the placement at the radio
// range), using BFS hop counts. The adjacency is only read, so the routers of
// one placement share a single one.
func NewStatic(id pkt.NodeID, m *mac.DCF, adj [][]int, deliver func(p *pkt.Packet)) *StaticRouter {
	if deliver == nil {
		panic("aodv: deliver callback required")
	}
	n := len(adj)
	next := make([]pkt.NodeID, n)
	for d := 0; d < n; d++ {
		next[d] = pkt.Broadcast // unreachable marker
	}
	// BFS from id; next hop toward every destination is the first step of
	// the reverse path.
	parent := make([]int, n)
	for i := range parent {
		parent[i] = -1
	}
	queue := []int{int(id)}
	parent[id] = int(id)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range adj[u] {
			if parent[v] == -1 {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	for d := 0; d < n; d++ {
		if d == int(id) || parent[d] == -1 {
			continue
		}
		hop := d
		for parent[hop] != int(id) {
			hop = parent[hop]
		}
		next[d] = pkt.NodeID(hop)
	}
	r := &StaticRouter{id: id, mac: m, next: next, deliver: deliver}
	r.Reset()
	return r
}

// Reset clears the per-run state (counters and the DropData hook) while
// keeping the precomputed routes; NewStatic ends with it. Only valid when
// the node placement is unchanged — the owner checks that before reusing a
// static router, since the routes are a pure function of the positions.
func (r *StaticRouter) Reset() {
	r.DropData = nil
	r.Counters = Counters{}
}

// NextHop returns the next hop toward dst, or pkt.Broadcast when dst is
// unreachable.
func (r *StaticRouter) NextHop(dst pkt.NodeID) pkt.NodeID { return r.next[dst] }

// Send routes a locally originated packet.
func (r *StaticRouter) Send(p *pkt.Packet) {
	if p.Dst == r.id {
		r.deliver(p)
		return
	}
	nh := r.next[p.Dst]
	if nh == pkt.Broadcast {
		panic(fmt.Sprintf("aodv: static route missing %d->%d", r.id, p.Dst))
	}
	r.mac.Enqueue(p, nh)
}

// HandlePacket forwards or delivers (MAC Deliver callback).
func (r *StaticRouter) HandlePacket(p *pkt.Packet, _ pkt.NodeID) {
	if p.Kind == pkt.KindRouting {
		p.Release() // no control traffic in static mode
		return
	}
	if p.Dst == r.id {
		r.deliver(p)
		return
	}
	r.Send(p)
}

// HandleLinkFailure drops the packet silently: static routes never change,
// so the loss surfaces to the transport layer only.
func (r *StaticRouter) HandleLinkFailure(p *pkt.Packet, _ pkt.NodeID) {
	if r.DropData != nil && (p.Kind.IsData() || p.Kind == pkt.KindTCPAck) {
		r.DropData(p)
	}
	p.Release()
}
