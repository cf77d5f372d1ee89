// Package fault implements the deterministic, schedule-driven fault
// plane: node crashes and restarts, directed link blackouts, and field
// partitions, all installed as ordinary scheduler events so every run
// remains byte-identical per seed. The package owns only the live fault
// *state* (which nodes are down, which links are severed); tearing down
// and rebuilding the protocol stack above the PHY is delegated to hooks
// the owning layer installs on the Plane.
//
// Faults draw no randomness: every transition fires at a configured
// simulated time, so a faulted run and a fault-free run consume the
// exact same RNG stream for everything else.
package fault

import (
	"manetsim/internal/geo"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// Plane is the live fault state of one run. The PHY consults it on the
// hot path (Quiet, Severed); injectors mutate it from scheduled events.
// A Plane is reused across arena runs via Reset and holds no references
// to scheduler or protocol state of its own.
type Plane struct {
	// crashes counts in-force crashes per node, so overlapping crashes of
	// one node nest the way blackouts do; downs is their total.
	crashes []int
	downs   int

	// blocked counts active blackouts per packed directed link, so
	// overlapping blackout intervals compose instead of cancelling.
	blocked map[uint64]int

	// side is the active partition's membership (true = side A); links
	// crossing sides are severed while partitions > 0.
	side       []bool
	partitions int

	// active counts every in-force fault so the hot path can skip all
	// per-frame checks with one comparison while the plane is quiet.
	active int

	// OnNodeDown and OnNodeUp are installed by the owning layer to tear
	// down and rebuild the MAC/routing/transport stack of a node when it
	// crashes or restarts. They run inside the scheduled fault event,
	// after the plane state has flipped. Nil hooks are skipped.
	OnNodeDown func(pkt.NodeID)
	OnNodeUp   func(pkt.NodeID)
}

// Reset rewinds the plane for a run over n nodes, keeping allocations.
// Hooks are cleared; the owner reinstalls them each build.
func (p *Plane) Reset(n int) {
	if cap(p.crashes) < n {
		p.crashes = make([]int, n)
	} else {
		p.crashes = p.crashes[:n]
		clear(p.crashes)
	}
	p.downs = 0
	clear(p.blocked)
	p.side = nil
	p.partitions = 0
	p.active = 0
	p.OnNodeDown = nil
	p.OnNodeUp = nil
}

// Quiet reports that no fault is currently in force; while true the PHY
// skips every per-frame fault check.
func (p *Plane) Quiet() bool { return p == nil || p.active == 0 }

// NodeDown reports whether id is currently crashed.
func (p *Plane) NodeDown(id pkt.NodeID) bool {
	return p != nil && p.downs > 0 && p.crashes[id] > 0
}

// Severed reports whether a frame from a to b cannot be decoded right
// now: either endpoint is down, the directed link is blacked out, or an
// active partition separates the two nodes.
func (p *Plane) Severed(a, b pkt.NodeID) bool {
	if p == nil || p.active == 0 {
		return false
	}
	if p.downs > 0 && (p.crashes[a] > 0 || p.crashes[b] > 0) {
		return true
	}
	if len(p.blocked) > 0 && p.blocked[linkKey(a, b)] > 0 {
		return true
	}
	if p.partitions > 0 && p.side[a] != p.side[b] {
		return true
	}
	return false
}

// CrashNode takes id down; the OnNodeDown hook runs on the first of
// overlapping crashes. Crashes nest: the node stays down until every
// CrashNode has been matched by a RestoreNode.
func (p *Plane) CrashNode(id pkt.NodeID) {
	p.crashes[id]++
	p.downs++
	p.active++
	if p.crashes[id] == 1 && p.OnNodeDown != nil {
		p.OnNodeDown(id)
	}
}

// RestoreNode removes one crash from id; the OnNodeUp hook runs when the
// last one goes. Restoring a node that is not down is a no-op.
func (p *Plane) RestoreNode(id pkt.NodeID) {
	if p.crashes[id] == 0 {
		return
	}
	p.crashes[id]--
	p.downs--
	p.active--
	if p.crashes[id] == 0 && p.OnNodeUp != nil {
		p.OnNodeUp(id)
	}
}

// BlockLink severs the directed link a->b. Blackouts nest: a link stays
// severed until every BlockLink has been matched by an UnblockLink.
func (p *Plane) BlockLink(a, b pkt.NodeID) {
	if p.blocked == nil {
		p.blocked = make(map[uint64]int)
	}
	p.blocked[linkKey(a, b)]++
	p.active++
}

// UnblockLink removes one blackout from the directed link a->b.
func (p *Plane) UnblockLink(a, b pkt.NodeID) {
	k := linkKey(a, b)
	if n := p.blocked[k]; n > 0 {
		if n == 1 {
			delete(p.blocked, k)
		} else {
			p.blocked[k] = n - 1
		}
		p.active--
	}
}

// StartPartition severs every link between side-A nodes (side[i] true)
// and the rest of the field. The slice is captured, not copied; it must
// stay immutable while the partition is active. Overlapping partitions
// share the most recent membership.
func (p *Plane) StartPartition(side []bool) {
	p.side = side
	p.partitions++
	p.active++
}

// Heal removes one active partition.
func (p *Plane) Heal() {
	if p.partitions > 0 {
		p.partitions--
		p.active--
	}
}

// linkKey packs a directed link into one map key.
func linkKey(a, b pkt.NodeID) uint64 {
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// Env is the context an injector schedules against: the run's event
// scheduler, its fault plane, and the initial node placement (for
// axis-cut partitions).
type Env struct {
	Sched     *sim.Scheduler
	Plane     *Plane
	Positions []geo.Point
}

// Fault is one injector. Schedule installs the fault's timed events
// during build, after the plane has been reset; implementations must
// draw no randomness and may allocate only here, never at fire time
// (the scheduled closures run allocation-free).
type Fault interface {
	Schedule(env Env)
}

// NodeCrash takes a node down at At; with Downtime > 0 the node restarts
// Downtime later (radio, MAC, routing and transport state rebuilt by the
// plane's hooks), otherwise it stays down for the rest of the run.
type NodeCrash struct {
	Node     pkt.NodeID
	At       sim.Time
	Downtime sim.Time
}

// Schedule implements Fault.
func (f NodeCrash) Schedule(env Env) {
	pl, id := env.Plane, f.Node
	// One-time fault setup at build, not the per-frame hot path; the
	// closures capture two values, so AtFunc would allocate just the same.
	//manetsim:allow hotpathalloc
	env.Sched.At(f.At, func() { pl.CrashNode(id) })
	if f.Downtime > 0 {
		//manetsim:allow hotpathalloc
		env.Sched.At(f.At+f.Downtime, func() { pl.RestoreNode(id) })
	}
}

// LinkBlackout forces the link From->To (both directions when
// Bidirectional) undecodable from At for Duration; Duration 0 blacks it
// out for the rest of the run. Blackouts compose with link-impairment
// models: a blacked-out copy is dropped before any loss draw.
type LinkBlackout struct {
	From, To      pkt.NodeID
	Bidirectional bool
	At            sim.Time
	Duration      sim.Time
}

// Schedule implements Fault.
func (f LinkBlackout) Schedule(env Env) {
	pl, a, b := env.Plane, f.From, f.To
	bidir := f.Bidirectional
	// One-time fault setup; multi-value capture (see NodeCrash.Schedule).
	//manetsim:allow hotpathalloc
	env.Sched.At(f.At, func() {
		pl.BlockLink(a, b)
		if bidir {
			pl.BlockLink(b, a)
		}
	})
	if f.Duration > 0 {
		//manetsim:allow hotpathalloc
		env.Sched.At(f.At+f.Duration, func() {
			pl.UnblockLink(a, b)
			if bidir {
				pl.UnblockLink(b, a)
			}
		})
	}
}

// Partition cuts the field in two at At and heals it Duration later
// (Duration 0 = never). Side A is either the explicit SideA node set or,
// when SideA is empty, every node whose initial position lies strictly
// below Cut on the given axis ("x" or "y"). Links crossing the cut are
// severed in both directions; links within a side are untouched.
type Partition struct {
	At       sim.Time
	Duration sim.Time
	SideA    []pkt.NodeID
	Axis     string
	Cut      float64
}

// Schedule implements Fault.
func (f Partition) Schedule(env Env) {
	side := make([]bool, len(env.Positions))
	if len(f.SideA) > 0 {
		for _, id := range f.SideA {
			side[id] = true
		}
	} else {
		for i, pos := range env.Positions {
			v := pos.X
			if f.Axis == "y" {
				v = pos.Y
			}
			side[i] = v < f.Cut
		}
	}
	pl := env.Plane
	// One-time fault setup; multi-value capture (see NodeCrash.Schedule).
	//manetsim:allow hotpathalloc
	env.Sched.At(f.At, func() { pl.StartPartition(side) })
	if f.Duration > 0 {
		//manetsim:allow hotpathalloc
		env.Sched.At(f.At+f.Duration, func() { pl.Heal() })
	}
}
