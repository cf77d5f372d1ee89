package aodv

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// TestQuickTableFreshnessInvariant property-checks the routing table never
// replaces a route with a stale one (lower sequence number), for any
// sequence of updates and invalidations.
func TestQuickTableFreshnessInvariant(t *testing.T) {
	type op struct {
		Dst  uint8
		Next uint8
		Hops uint8
		Seq  uint8
		Inv  bool
	}
	f := func(ops []op) bool {
		sched := sim.NewScheduler(1)
		tb := NewTable(sched, sim.Time(time.Hour))
		lastSeq := map[pkt.NodeID]uint32{}
		for _, o := range ops {
			dst := pkt.NodeID(o.Dst % 8)
			if o.Inv {
				tb.Invalidate(dst)
			} else {
				tb.Update(dst, pkt.NodeID(o.Next%8), int(o.Hops%10)+1, uint32(o.Seq))
			}
			if r := tb.Lookup(dst); r != nil {
				if prev, ok := lastSeq[dst]; ok && seqGreater(prev, r.SeqNo) {
					return false // freshness went backwards
				}
				lastSeq[dst] = r.SeqNo
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickStaticRouterPathsTerminate property-checks that following
// static next hops from any source reaches the destination without loops
// on random connected topologies.
func TestQuickStaticRouterPathsTerminate(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%15) + 3
		rng := rand.New(rand.NewSource(seed))
		pts, _, err := geo.Random(geo.RandomConfig{N: n, Width: 800, Height: 800, Range: 300}, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Build next-hop tables for every node via NewStatic (MAC unused
		// for the path-walk check).
		routers := make([]*StaticRouter, n)
		adj := geo.Neighbors(pts, 300)
		for i := range pts {
			routers[i] = NewStatic(pkt.NodeID(i), nil, adj, func(*pkt.Packet) {})
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s == d {
					continue
				}
				cur, steps := s, 0
				for cur != d {
					nh := routers[cur].NextHop(pkt.NodeID(d))
					if nh == pkt.Broadcast {
						return false // unreachable on a connected graph
					}
					cur = int(nh)
					steps++
					if steps > n {
						return false // loop
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestQuickSeqGreaterAntisymmetric property-checks the wraparound
// comparison is a strict partial order on distinct values.
func TestQuickSeqGreaterAntisymmetric(t *testing.T) {
	f := func(a, b uint32) bool {
		if a == b {
			return !seqGreater(a, b) && !seqGreater(b, a)
		}
		// Exactly one direction wins unless they are 2^31 apart.
		ga, gb := seqGreater(a, b), seqGreater(b, a)
		if int32(a-b) == -2147483648 {
			return !ga && !gb
		}
		return ga != gb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// refTable is the routing table as it was before entries were rewritten in
// place: every accepted update installs a fresh *Route. It is the
// reference TestQuickTableMatchesPointerReplacingReference holds Table to.
type refTable struct {
	sched   *sim.Scheduler
	entries map[pkt.NodeID]*Route
	timeout sim.Time
}

func (t *refTable) Update(dst, nextHop pkt.NodeID, hopCount int, seqNo uint32) bool {
	cur := t.entries[dst]
	curUsable := cur != nil && cur.Valid && cur.Expiry > t.sched.Now()
	fresher := cur == nil ||
		seqGreater(seqNo, cur.SeqNo) ||
		(seqNo == cur.SeqNo && (!curUsable || hopCount < cur.HopCount))
	if !fresher {
		if cur != nil && cur.Valid && cur.NextHop == nextHop && seqNo == cur.SeqNo {
			t.Refresh(dst)
		}
		return false
	}
	t.entries[dst] = &Route{NextHop: nextHop, HopCount: hopCount, SeqNo: seqNo, Valid: true, Expiry: t.sched.Now() + t.timeout}
	return true
}

func (t *refTable) Refresh(dst pkt.NodeID) {
	if r := t.entries[dst]; r != nil && r.Valid {
		r.Expiry = t.sched.Now() + t.timeout
	}
}

func (t *refTable) Invalidate(dst pkt.NodeID) bool {
	r := t.entries[dst]
	if r == nil || !r.Valid {
		return false
	}
	r.Valid = false
	r.SeqNo++
	return true
}

func (t *refTable) InvalidateNextHop(nh pkt.NodeID) (dsts []pkt.NodeID, seqs []uint32) {
	for dst, r := range t.entries {
		if r.Valid && r.NextHop == nh {
			r.Valid = false
			r.SeqNo++
			dsts = append(dsts, dst)
		}
	}
	slices.Sort(dsts)
	for _, dst := range dsts {
		seqs = append(seqs, t.entries[dst].SeqNo)
	}
	return dsts, seqs
}

// TestQuickTableMatchesPointerReplacingReference property-checks that the
// in-place table behaves exactly like the pointer-replacing one for random
// sequences of updates, refreshes, invalidations and next-hop teardowns
// with the clock moving underneath: same return values, the same
// (destinations, sequence numbers) from InvalidateNextHop, and the same
// entries and lookups after every step. The route timeout is short next to
// the clock steps, so expired-but-valid entries are common.
func TestQuickTableMatchesPointerReplacingReference(t *testing.T) {
	type op struct {
		Kind, Dst, Next, Hops, Seq, Advance uint8
	}
	const nodes = 6
	f := func(ops []op) bool {
		sched := sim.NewScheduler(1)
		timeout := sim.Time(20 * time.Millisecond)
		tb := NewTable(sched, timeout)
		ref := &refTable{sched: sched, entries: map[pkt.NodeID]*Route{}, timeout: timeout}
		var lost []pkt.Unreachable
		for _, o := range ops {
			sched.After(sim.Time(o.Advance%8)*sim.Time(time.Millisecond), func() {})
			sched.Run()
			dst, next := pkt.NodeID(o.Dst%nodes), pkt.NodeID(o.Next%nodes)
			switch o.Kind % 4 {
			case 0:
				hops, seq := int(o.Hops%4)+1, uint32(o.Seq%4)
				if tb.Update(dst, next, hops, seq) != ref.Update(dst, next, hops, seq) {
					return false
				}
			case 1:
				tb.Refresh(dst)
				ref.Refresh(dst)
			case 2:
				if tb.Invalidate(dst) != ref.Invalidate(dst) {
					return false
				}
			case 3:
				lost = tb.InvalidateNextHop(next, lost)
				dsts, seqs := ref.InvalidateNextHop(next)
				if len(lost) != len(dsts) {
					return false
				}
				for i, u := range lost {
					if u.Dst != dsts[i] || u.Seq != seqs[i] {
						return false
					}
				}
			}
			for d := pkt.NodeID(0); d < nodes; d++ {
				got, want := tb.Entry(d), ref.entries[d]
				if (got == nil) != (want == nil) || got != nil && *got != *want {
					return false
				}
				if (tb.Lookup(d) == nil) != (want == nil || !want.Valid || want.Expiry <= sched.Now()) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
