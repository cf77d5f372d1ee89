package aodv

import (
	"math/rand"
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
		pts, _ := geo.Random(geo.RandomConfig{N: n, Width: 800, Height: 800, Range: 300}, rng)
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
