package phy

import (
	"math"

	"manetsim/internal/geo"
)

// cellKey addresses one bucket of the spatial grid.
type cellKey struct {
	x, y int32
}

// spatialGrid is a uniform-cell spatial index over radios. With the cell
// size equal to the carrier-sense range, every radio that can possibly hear
// a transmitter lives in the 3x3 cell neighborhood around it, so neighbor
// queries cost O(local density) instead of O(n) — and the channel never
// needs the old O(n²) all-pairs precompute.
type spatialGrid struct {
	cell  float64
	cells map[cellKey][]*Radio
}

func newSpatialGrid(cell float64) *spatialGrid {
	if cell <= 0 {
		panic("phy: non-positive grid cell size")
	}
	return &spatialGrid{cell: cell, cells: make(map[cellKey][]*Radio)}
}

func (g *spatialGrid) keyOf(p geo.Point) cellKey {
	return cellKey{
		x: int32(math.Floor(p.X / g.cell)),
		y: int32(math.Floor(p.Y / g.cell)),
	}
}

// insert adds a radio under its current position.
func (g *spatialGrid) insert(r *Radio) {
	k := g.keyOf(r.pos)
	g.cells[k] = append(g.cells[k], r)
}

// reset empties the grid while keeping bucket capacity: entries are nilled
// and each bucket truncated in place. Empty buckets are harmless to scans
// and are deleted by move as radios leave them.
func (g *spatialGrid) reset() {
	for k, bucket := range g.cells {
		for i := range bucket {
			bucket[i] = nil
		}
		g.cells[k] = bucket[:0]
	}
}

// move re-buckets a radio whose position changed from old to its current
// pos. Cheap no-op when the move stays within one cell.
func (g *spatialGrid) move(r *Radio, old geo.Point) {
	from, to := g.keyOf(old), g.keyOf(r.pos)
	if from == to {
		return
	}
	bucket := g.cells[from]
	for i, other := range bucket {
		if other == r {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(g.cells, from)
	} else {
		g.cells[from] = bucket
	}
	g.cells[to] = append(g.cells[to], r)
}

// span returns the corner cells of the block that holds every radio within
// radius of p (plus cell-boundary slack — callers must still filter by exact
// distance).
func (g *spatialGrid) span(p geo.Point, radius float64) (lo, hi cellKey) {
	return g.keyOf(geo.Point{X: p.X - radius, Y: p.Y - radius}),
		g.keyOf(geo.Point{X: p.X + radius, Y: p.Y + radius})
}
