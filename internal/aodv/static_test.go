package aodv

import (
	"math/rand"
	"testing"

	"manetsim/internal/geo"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
)

// perNodeNextHops is the reference the shared-adjacency routers are held to:
// node id derives the unit-disk graph from the positions by itself — all
// pairs, by distance — and takes, toward every destination, the first step
// of the BFS tree it grows in ascending neighbor order.
func perNodeNextHops(id int, pts []geo.Point, radioRange float64) []pkt.NodeID {
	n := len(pts)
	next := make([]pkt.NodeID, n)
	parent := make([]int, n)
	for i := range parent {
		next[i] = pkt.Broadcast
		parent[i] = -1
	}
	parent[id] = id
	for queue := []int{id}; len(queue) > 0; queue = queue[1:] {
		u := queue[0]
		for v := range pts {
			if v != u && parent[v] == -1 && pts[u].Distance(pts[v]) <= radioRange {
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	for d := range pts {
		if d == id || parent[d] == -1 {
			continue
		}
		hop := d
		for parent[hop] != id {
			hop = parent[hop]
		}
		next[d] = pkt.NodeID(hop)
	}
	return next
}

// TestStaticRoutersFromSharedAdjacency: routers handed one adjacency per
// placement route exactly as routers that each work the placement out alone.
func TestStaticRoutersFromSharedAdjacency(t *testing.T) {
	grid21, _ := geo.Grid21()
	var grid210 []geo.Point
	for row := 0; row < 14; row++ {
		for col := 0; col < 15; col++ {
			grid210 = append(grid210, geo.Point{X: float64(col) * 200, Y: float64(row) * 200})
		}
	}
	field, _, err := geo.Random(geo.RandomConfig{N: 120, Width: 2500, Height: 1000, Range: phy.TxRange}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Two chains a kilometer apart, plus a node in range of nobody.
	islands := append(geo.Chain(3), geo.Point{X: 5000, Y: 5000})
	for _, p := range geo.Chain(3) {
		islands = append(islands, geo.Point{X: p.X, Y: 1000})
	}
	for _, tc := range []struct {
		name string
		pts  []geo.Point
	}{
		{"chain8", geo.Chain(8)},
		{"grid21", grid21},
		{"grid15x14", grid210},
		{"random120", field},
		{"islands", islands},
	} {
		adj := geo.Neighbors(tc.pts, phy.TxRange)
		unreachable := 0
		for id := range tc.pts {
			r := NewStatic(pkt.NodeID(id), nil, adj, func(*pkt.Packet) {})
			want := perNodeNextHops(id, tc.pts, phy.TxRange)
			for d := range tc.pts {
				if got := r.NextHop(pkt.NodeID(d)); got != want[d] {
					t.Fatalf("%s: next hop %d->%d = %d, want %d", tc.name, id, d, got, want[d])
				}
				if d != id && want[d] == pkt.Broadcast {
					unreachable++
				}
			}
		}
		if wantSplit := tc.name == "islands"; (unreachable > 0) != wantSplit {
			t.Errorf("%s: %d unreachable pairs, disconnected = %v", tc.name, unreachable, wantSplit)
		}
	}
}
