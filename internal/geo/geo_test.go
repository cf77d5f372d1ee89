package geo

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestChainSpacing(t *testing.T) {
	pts := Chain(7)
	if len(pts) != 8 {
		t.Fatalf("7-hop chain has %d nodes, want 8", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if d := pts[i].Distance(pts[i-1]); math.Abs(d-200) > 1e-9 {
			t.Errorf("spacing between %d and %d = %v, want 200", i-1, i, d)
		}
	}
	// Hidden-terminal geometry from the paper: node i is 600 m from node
	// i-3 (outside 550 m carrier sense) but 400 m from node i-2 (inside
	// 550 m interference range).
	if d := pts[4].Distance(pts[1]); math.Abs(d-600) > 1e-9 {
		t.Errorf("node4-node1 distance = %v, want 600", d)
	}
	if d := pts[4].Distance(pts[2]); math.Abs(d-400) > 1e-9 {
		t.Errorf("node4-node2 distance = %v, want 400", d)
	}
}

func TestChainPanicsOnZeroHops(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Chain(0) did not panic")
		}
	}()
	Chain(0)
}

func TestGrid21Layout(t *testing.T) {
	pts, flows := Grid21()
	if len(pts) != 21 {
		t.Fatalf("grid has %d nodes, want 21", len(pts))
	}
	if len(flows) != 6 {
		t.Fatalf("grid has %d flows, want 6", len(flows))
	}
	// All horizontally/vertically adjacent nodes 200 m apart.
	for r := 0; r < 3; r++ {
		for c := 0; c < 7; c++ {
			i := r*7 + c
			if c > 0 {
				if d := pts[i].Distance(pts[i-1]); math.Abs(d-200) > 1e-9 {
					t.Errorf("horizontal spacing at %d = %v", i, d)
				}
			}
			if r > 0 {
				if d := pts[i].Distance(pts[i-7]); math.Abs(d-200) > 1e-9 {
					t.Errorf("vertical spacing at %d = %v", i, d)
				}
			}
		}
	}
	// Three horizontal flows span rows (6 hops), three vertical span
	// columns (2 hops).
	horiz, vert := 0, 0
	for _, f := range flows {
		dy := pts[f.Src].Y - pts[f.Dst].Y
		dx := pts[f.Src].X - pts[f.Dst].X
		switch {
		case dy == 0 && math.Abs(dx) == 1200:
			horiz++
		case dx == 0 && math.Abs(dy) == 400:
			vert++
		default:
			t.Errorf("unexpected flow geometry %v -> %v", pts[f.Src], pts[f.Dst])
		}
	}
	if horiz != 3 || vert != 3 {
		t.Errorf("flows: %d horizontal, %d vertical; want 3 and 3", horiz, vert)
	}
}

func TestRandomTopologyConnectedAndInBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	cfg := RandomConfig{N: 120, Width: 2500, Height: 1000, Range: 250}
	pts, attempts, err := Random(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 120 {
		t.Fatalf("random topology has %d nodes, want 120", len(pts))
	}
	if attempts < 1 {
		t.Errorf("attempts = %d, want >=1", attempts)
	}
	for i, p := range pts {
		if p.X < 0 || p.X > 2500 || p.Y < 0 || p.Y > 1000 {
			t.Errorf("node %d at %v outside area", i, p)
		}
	}
	if !Connected(pts, 250) {
		t.Error("accepted topology is not connected")
	}
}

func TestRandomTopologyDeterministicPerSeed(t *testing.T) {
	cfg := RandomConfig{N: 30, Width: 1000, Height: 1000, Range: 250}
	a, _, _ := Random(cfg, rand.New(rand.NewSource(7)))
	b, _, _ := Random(cfg, rand.New(rand.NewSource(7)))
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different placements at node %d", i)
		}
	}
}

// TestRandomTooSparseFieldErrors: two nodes on a 1e9 m square are almost
// never within range, so Random gives up after maxRandomAttempts draws
// with an error naming the field instead of resampling forever.
func TestRandomTooSparseFieldErrors(t *testing.T) {
	cfg := RandomConfig{N: 2, Width: 1e9, Height: 1e9, Range: 250}
	pts, attempts, err := Random(cfg, rand.New(rand.NewSource(1)))
	if err == nil || !strings.Contains(err.Error(), "too sparse") || !strings.Contains(err.Error(), "1e+09x1e+09") {
		t.Fatalf("Random on a 1e9 m field = %d points, err %v; want a too-sparse error naming the field", len(pts), err)
	}
	if pts != nil || attempts != maxRandomAttempts {
		t.Errorf("gave up with %d points after %d attempts, want none after %d", len(pts), attempts, maxRandomAttempts)
	}
}

func TestConnected(t *testing.T) {
	line := []Point{{0, 0}, {200, 0}, {400, 0}}
	if !Connected(line, 250) {
		t.Error("200m-spaced line should be connected at 250m range")
	}
	if Connected(line, 150) {
		t.Error("200m-spaced line should be disconnected at 150m range")
	}
	if Connected(nil, 250) {
		t.Error("empty set should not be connected")
	}
	if !Connected([]Point{{5, 5}}, 1) {
		t.Error("single node should be trivially connected")
	}
}

func TestNeighborsChainRanges(t *testing.T) {
	pts := Chain(7)
	tx := Neighbors(pts, 250)
	cs := Neighbors(pts, 550)
	// Transmission range: only immediate neighbors.
	if len(tx[3]) != 2 || tx[3][0] != 2 || tx[3][1] != 4 {
		t.Errorf("tx neighbors of node 3 = %v, want [2 4]", tx[3])
	}
	if len(tx[0]) != 1 || tx[0][0] != 1 {
		t.Errorf("tx neighbors of node 0 = %v, want [1]", tx[0])
	}
	// Carrier-sense range: up to two hops away (400 m <= 550 < 600).
	if len(cs[3]) != 4 {
		t.Errorf("cs neighbors of node 3 = %v, want 4 nodes", cs[3])
	}
	for _, j := range cs[3] {
		if j < 1 || j > 5 {
			t.Errorf("cs neighbor %d of node 3 outside [1,5]", j)
		}
	}
}

func TestPickFlows(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	flows := PickFlows(120, 10, rng)
	if len(flows) != 10 {
		t.Fatalf("got %d flows, want 10", len(flows))
	}
	seen := map[[2]int]bool{}
	for _, f := range flows {
		if f.Src == f.Dst {
			t.Errorf("flow with identical endpoints: %+v", f)
		}
		key := [2]int{f.Src, f.Dst}
		if seen[key] {
			t.Errorf("duplicate flow %+v", f)
		}
		seen[key] = true
		if f.Src < 0 || f.Src >= 120 || f.Dst < 0 || f.Dst >= 120 {
			t.Errorf("flow endpoint out of range: %+v", f)
		}
	}
}

func TestQuickNeighborsSymmetric(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%30) + 2
		rng := rand.New(rand.NewSource(seed))
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
		}
		nb := Neighbors(pts, 300)
		adj := make(map[[2]int]bool)
		for i, list := range nb {
			for _, j := range list {
				adj[[2]int{i, j}] = true
			}
		}
		for k := range adj {
			if !adj[[2]int{k[1], k[0]}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickDistanceMetricProperties(t *testing.T) {
	f := func(ax, ay, bx, by, cx, cy int16) bool {
		a := Point{float64(ax), float64(ay)}
		b := Point{float64(bx), float64(by)}
		c := Point{float64(cx), float64(cy)}
		dab, dba := a.Distance(b), b.Distance(a)
		// Symmetry, identity, triangle inequality.
		return dab == dba &&
			a.Distance(a) == 0 &&
			a.Distance(c) <= dab+b.Distance(c)+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestBoundsAndRect(t *testing.T) {
	pts, _ := Grid21()
	r := Bounds(pts)
	if r.Min != (Point{0, 0}) || r.Max != (Point{1200, 400}) {
		t.Errorf("grid bounds = %v..%v, want (0,0)..(1200,400)", r.Min, r.Max)
	}
	if r.Width() != 1200 || r.Height() != 400 {
		t.Errorf("width/height = %v/%v, want 1200/400", r.Width(), r.Height())
	}
	if !r.Contains(Point{600, 200}) || r.Contains(Point{600, 401}) {
		t.Error("Contains wrong around the grid bounds")
	}
	if got := r.Clamp(Point{-50, 500}); got != (Point{0, 400}) {
		t.Errorf("Clamp(-50,500) = %v, want (0,400)", got)
	}
	if got := r.Clamp(Point{600, 200}); got != (Point{600, 200}) {
		t.Errorf("Clamp of an interior point moved it to %v", got)
	}
}

func TestBoundsDegenerate(t *testing.T) {
	// A chain's bounding box is a horizontal segment.
	r := Bounds(Chain(4))
	if r.Height() != 0 || r.Width() != 4*NodeSpacing {
		t.Errorf("chain bounds = %v..%v", r.Min, r.Max)
	}
	if got := (Rect{}); Bounds(nil) != got {
		t.Errorf("Bounds(nil) = %v, want zero rect", Bounds(nil))
	}
}
