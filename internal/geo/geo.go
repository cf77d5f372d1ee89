// Package geo provides node placement and the three topologies evaluated in
// the paper: the equally spaced h-hop chain, the 21-node grid with six
// crossing flows (Figure 15), and the 120-node uniform random topology on a
// 2500x1000 m² area.
package geo

import (
	"fmt"
	"math"
	"math/rand"
)

// Point is a position on the plane, in meters.
type Point struct {
	X, Y float64
}

// Distance returns the Euclidean distance to q in meters.
func (p Point) Distance(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

func (p Point) String() string { return fmt.Sprintf("(%.0f,%.0f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle on the plane, used to bound mobility
// fields. Min and Max are opposite corners with Min.X <= Max.X and
// Min.Y <= Max.Y.
type Rect struct {
	Min, Max Point
}

// Width returns the horizontal extent of the rectangle.
func (r Rect) Width() float64 { return r.Max.X - r.Min.X }

// Height returns the vertical extent of the rectangle.
func (r Rect) Height() float64 { return r.Max.Y - r.Min.Y }

// Contains reports whether p lies inside the rectangle (borders included).
func (r Rect) Contains(p Point) bool {
	return p.X >= r.Min.X && p.X <= r.Max.X && p.Y >= r.Min.Y && p.Y <= r.Max.Y
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	p.X = math.Min(math.Max(p.X, r.Min.X), r.Max.X)
	p.Y = math.Min(math.Max(p.Y, r.Min.Y), r.Max.Y)
	return p
}

// Bounds returns the bounding box of the given points. A degenerate box
// (zero width or height) is possible and valid — a chain's bounding box is
// a line segment.
func Bounds(pts []Point) Rect {
	if len(pts) == 0 {
		return Rect{}
	}
	r := Rect{Min: pts[0], Max: pts[0]}
	for _, p := range pts[1:] {
		r.Min.X = math.Min(r.Min.X, p.X)
		r.Min.Y = math.Min(r.Min.Y, p.Y)
		r.Max.X = math.Max(r.Max.X, p.X)
		r.Max.Y = math.Max(r.Max.Y, p.Y)
	}
	return r
}

// NodeSpacing is the inter-node distance used by the paper's chain and grid
// topologies (meters).
const NodeSpacing = 200.0

// Chain returns the positions of an h-hop chain: h+1 nodes spaced 200 m on
// a line. Node 0 is the TCP sender's host, node h the receiver's.
func Chain(hops int) []Point {
	if hops < 1 {
		panic(fmt.Sprintf("geo: chain needs at least 1 hop, got %d", hops))
	}
	pts := make([]Point, hops+1)
	for i := range pts {
		pts[i] = Point{X: float64(i) * NodeSpacing}
	}
	return pts
}

// GridFlow names a directed flow between grid node indices.
type GridFlow struct {
	Src, Dst int
}

// Grid21 returns the paper's 21-node grid (Figure 15) and its six
// competing FTP flows (three horizontal rows left→right, three vertical
// columns top→bottom). Nodes are laid out in a 7x3 lattice with 200 m
// spacing: index = row*7 + col, row 0 at the top.
func Grid21() ([]Point, []GridFlow) {
	const cols, rows = 7, 3
	pts := make([]Point, 0, cols*rows)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			pts = append(pts, Point{X: float64(c) * NodeSpacing, Y: float64(r) * NodeSpacing})
		}
	}
	flows := []GridFlow{
		// FTP1..FTP3: horizontal, one per row.
		{Src: 0, Dst: 6},
		{Src: 7, Dst: 13},
		{Src: 14, Dst: 20},
		// FTP4..FTP6: vertical, down columns 1, 3 and 5 (0-based).
		{Src: 1, Dst: 15},
		{Src: 3, Dst: 17},
		{Src: 5, Dst: 19},
	}
	return pts, flows
}

// RandomConfig describes a uniform random topology.
type RandomConfig struct {
	N      int     // number of nodes (paper: 120)
	Width  float64 // area width in meters (paper: 2500)
	Height float64 // area height in meters (paper: 1000)
	Range  float64 // radio transmission range used for the connectivity check (paper: 250)
}

// maxRandomAttempts bounds the placements Random draws before it gives up
// on a field. The highest count the in-tree callers reached, over the
// whole test suite, every figure at quick scale and the examples, is 27
// (12 nodes on 800 x 800 m); the paper's 120-node field needed at most 3.
// Over seeds 1-3000 those two fields need at most 90 and 12. A field that
// needs more than 1000 is too sparse for its node count, not unlucky.
const maxRandomAttempts = 1000

// Random places cfg.N nodes uniformly at random, resampling until the
// topology is connected under cfg.Range (the paper cites Bettstetter's
// P=99.9% connectivity criterion; resampling makes it exact). It returns
// the accepted placement and the number of attempts used, or an error
// once maxRandomAttempts placements have all been disconnected.
func Random(cfg RandomConfig, rng *rand.Rand) ([]Point, int, error) {
	if cfg.N < 2 {
		panic(fmt.Sprintf("geo: random topology needs >=2 nodes, got %d", cfg.N))
	}
	if cfg.Range <= 0 || cfg.Width <= 0 || cfg.Height <= 0 {
		panic("geo: random topology needs positive range and area")
	}
	for attempt := 1; attempt <= maxRandomAttempts; attempt++ {
		pts := make([]Point, cfg.N)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * cfg.Width, Y: rng.Float64() * cfg.Height}
		}
		if Connected(pts, cfg.Range) {
			return pts, attempt, nil
		}
	}
	return nil, maxRandomAttempts, fmt.Errorf("geo: a %gx%g m field is too sparse for %d nodes at %g m range: %d random placements were all disconnected",
		cfg.Width, cfg.Height, cfg.N, cfg.Range, maxRandomAttempts)
}

// Connected reports whether the unit-disk graph over pts with the given
// radio range is connected.
func Connected(pts []Point, radioRange float64) bool {
	n := len(pts)
	if n == 0 {
		return false
	}
	visited := make([]bool, n)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := 0; v < n; v++ {
			if !visited[v] && pts[u].Distance(pts[v]) <= radioRange {
				visited[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == n
}

// Neighbors returns, for each node, the indices of all other nodes within
// the given range, in ascending index order. It is used to precompute both
// transmission (250 m) and carrier-sense/interference (550 m) neighbor
// sets.
func Neighbors(pts []Point, within float64) [][]int {
	n := len(pts)
	out := make([][]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && pts[i].Distance(pts[j]) <= within {
				out[i] = append(out[i], j)
			}
		}
	}
	return out
}

// PickFlows selects k distinct random (src, dst) pairs with src != dst for
// the random-topology experiment. Endpoints may appear in several flows,
// matching the paper's "sources and destinations randomly selected".
func PickFlows(n, k int, rng *rand.Rand) []GridFlow {
	if n < 2 {
		panic("geo: PickFlows needs >=2 nodes")
	}
	flows := make([]GridFlow, 0, k)
	used := make(map[[2]int]bool, k)
	for len(flows) < k {
		s := rng.Intn(n)
		d := rng.Intn(n)
		if s == d {
			continue
		}
		key := [2]int{s, d}
		if used[key] {
			continue
		}
		used[key] = true
		flows = append(flows, GridFlow{Src: s, Dst: d})
	}
	return flows
}
