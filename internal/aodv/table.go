package aodv

import (
	"cmp"
	"slices"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// Route is one forwarding table entry.
type Route struct {
	NextHop  pkt.NodeID
	HopCount int
	SeqNo    uint32
	Valid    bool
	Expiry   sim.Time
}

// Table is the per-node AODV routing table.
type Table struct {
	sched   *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the table
	entries map[pkt.NodeID]*Route
	slab    []Route  //manetsim:resetsafe unused tail of the current slab; carved routes live in entries
	timeout sim.Time // active route timeout
}

// NewTable creates an empty table with the given active-route timeout.
func NewTable(sched *sim.Scheduler, timeout sim.Time) *Table {
	t := &Table{sched: sched, entries: make(map[pkt.NodeID]*Route)}
	t.Reset(timeout)
	return t
}

// Reset empties the table for a run, keeping the map's capacity, and
// installs the active-route timeout; NewTable ends with it.
func (t *Table) Reset(timeout sim.Time) {
	clear(t.entries)
	t.timeout = timeout
}

// Lookup returns the valid, unexpired route to dst, or nil.
func (t *Table) Lookup(dst pkt.NodeID) *Route {
	r := t.entries[dst]
	if r == nil || !r.Valid || r.Expiry <= t.sched.Now() {
		return nil
	}
	return r
}

// Entry returns the raw entry for dst regardless of validity, or nil.
func (t *Table) Entry(dst pkt.NodeID) *Route { return t.entries[dst] }

// Update installs or refreshes the route to dst if the new information is
// fresher (higher sequence number) or equally fresh but shorter, or if the
// existing entry is unusable — invalid or expired. Treating an expired
// entry like an invalid one matters under mobility: a node idle past the
// active-route timeout would otherwise hold a Valid-flagged corpse that
// rejects equal-sequence routes through other neighbors, turning every
// rediscovery into a no-route drop at this hop. It reports whether the
// entry changed. The entry is rewritten in place, and a destination's
// first insert carves it from a slab, so updates do not allocate; callers
// read a *Route from Lookup or Entry before the next table write, which
// may rewrite it.
//
//manetsim:hotpath
func (t *Table) Update(dst, nextHop pkt.NodeID, hopCount int, seqNo uint32) bool {
	cur := t.entries[dst]
	curUsable := cur != nil && cur.Valid && cur.Expiry > t.sched.Now()
	fresher := cur == nil ||
		seqGreater(seqNo, cur.SeqNo) ||
		(seqNo == cur.SeqNo && (!curUsable || hopCount < cur.HopCount))
	if !fresher {
		// Refresh lifetime of an equivalent route through the same hop.
		if cur != nil && cur.Valid && cur.NextHop == nextHop && seqNo == cur.SeqNo {
			t.Refresh(dst)
		}
		return false
	}
	if cur == nil {
		if len(t.slab) == 0 {
			// A new slab holds as many routes as the table has, so a
			// table allocates O(log destinations) times per run.
			t.slab = make([]Route, max(8, len(t.entries)))
		}
		cur = &t.slab[0]
		t.slab = t.slab[1:]
		t.entries[dst] = cur
	}
	*cur = Route{
		NextHop:  nextHop,
		HopCount: hopCount,
		SeqNo:    seqNo,
		Valid:    true,
		Expiry:   t.sched.Now() + t.timeout,
	}
	return true
}

// Refresh extends the lifetime of an active route (called on every use).
func (t *Table) Refresh(dst pkt.NodeID) {
	if r := t.entries[dst]; r != nil && r.Valid {
		r.Expiry = t.sched.Now() + t.timeout
	}
}

// Invalidate marks the route to dst broken, bumping its sequence number so
// stale information cannot resurrect it. It reports whether a valid route
// was torn down.
func (t *Table) Invalidate(dst pkt.NodeID) bool {
	r := t.entries[dst]
	if r == nil || !r.Valid {
		return false
	}
	r.Valid = false
	r.SeqNo++
	return true
}

// InvalidateNextHop tears down every valid route whose next hop is nh and
// returns the affected destinations with their bumped sequence numbers,
// overwriting lost and reusing its capacity. Destinations are sorted so
// the RERR payload built from them is independent of map iteration order.
func (t *Table) InvalidateNextHop(nh pkt.NodeID, lost []pkt.Unreachable) []pkt.Unreachable {
	lost = lost[:0]
	for dst, r := range t.entries {
		if r.Valid && r.NextHop == nh {
			r.Valid = false
			r.SeqNo++
			lost = append(lost, pkt.Unreachable{Dst: dst, Seq: r.SeqNo})
		}
	}
	slices.SortFunc(lost, byDst)
	return lost
}

func byDst(a, b pkt.Unreachable) int { return cmp.Compare(a.Dst, b.Dst) }

// seqGreater compares AODV sequence numbers with wraparound (RFC 3561 §6.1).
func seqGreater(a, b uint32) bool {
	return int32(a-b) > 0
}
