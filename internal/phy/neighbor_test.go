package phy

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/linkmodel"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// tour is a PositionModel replaying a table: at[k][i] is where node i sits
// during epoch k (the last row holds from then on).
type tour struct {
	at [][]geo.Point
}

func (m *tour) Len() int     { return len(m.at[0]) }
func (m *tour) Static() bool { return false }
func (m *tour) PositionAt(i int, t sim.Time) geo.Point {
	k := int(t / DefaultUpdateInterval)
	if k >= len(m.at) {
		k = len(m.at) - 1
	}
	return m.at[k][i]
}

// lattice is the pitch most tour positions snap to. CSRange is a multiple
// of it, so pairs sit at exactly the carrier-sense range (straight and along
// 3-4-5 diagonals), share a propagation delay, or share a position outright.
const lattice = 50

// newTour draws a tour of the given length over a square field. In the dense
// regime nearly every node moves every epoch (the channel invalidates all
// caches); in the sparse one fewer than a quarter do (it marks around each
// mover). Movers creep by under two meters, hop one lattice step, or jump
// anywhere, so neighbors enter and leave in every epoch.
func newTour(rng *rand.Rand, n, epochs int, dense bool) *tour {
	const side = 1500 / lattice
	spot := func() geo.Point {
		return geo.Point{X: float64(rng.Intn(side+1)) * lattice, Y: float64(rng.Intn(side+1)) * lattice}
	}
	m := &tour{at: make([][]geo.Point, epochs)}
	row := make([]geo.Point, n)
	for i := range row {
		row[i] = spot()
	}
	if n > 1 {
		row[1] = row[0]
	}
	m.at[0] = row
	for k := 1; k < epochs; k++ {
		next := append([]geo.Point(nil), m.at[k-1]...)
		movers := n
		if !dense {
			movers = rng.Intn(n/8 + 2)
		}
		for c := 0; c < movers; c++ {
			i := c
			if !dense {
				i = rng.Intn(n)
			}
			switch p := &next[i]; rng.Intn(10) {
			case 0:
				*p = spot()
			case 1, 2, 3:
				p.X = float64(int(p.X/lattice)+rng.Intn(3)-1) * lattice
				p.Y = float64(int(p.Y/lattice)+rng.Intn(3)-1) * lattice
			case 4:
				// stays put
			default:
				p.X += 4*rng.Float64() - 2
				p.Y += 4*rng.Float64() - 2
			}
		}
		m.at[k] = next
	}
	return m
}

// checkCache compares the neighbor cache of radio i against the definition:
// every other radio within CSRange by exact Distance, in id order, with the
// geometry fields computed from that distance, ranked by (propDelay, id),
// and — on an impaired channel — carrying the radio's own link state for
// that receiver, seeded for the current run seed and not yet drawn from.
func checkCache(ch *Channel, pos []geo.Point, i int) error {
	r := ch.radios[i]
	got := ch.neighborsOf(r)
	var want []neighbor
	for j := range pos {
		d := pos[i].Distance(pos[j])
		if j == i || d > CSRange {
			continue
		}
		want = append(want, neighbor{
			radio:     ch.radios[j],
			propDelay: PropagationDelay(d),
			decodable: d <= ch.decodeRange,
			power:     rxPower(d),
			dist:      d,
		})
	}
	order := make([]int, len(want))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return want[order[a]].propDelay < want[order[b]].propDelay })
	for rank, k := range order {
		want[k].rank = int32(rank)
	}
	if len(got) != len(want) {
		return fmt.Errorf("radio %d: %d neighbors, want %d", i, len(got), len(want))
	}
	for k := range want {
		g, w := got[k], want[k]
		link := g.link
		g.link = nil
		if g != w {
			return fmt.Errorf("radio %d entry %d: got %+v, want %+v", i, k, g, w)
		}
		if !ch.impaired() {
			if link != nil {
				return fmt.Errorf("radio %d -> %d: link state on an unimpaired channel", i, w.radio.id)
			}
			continue
		}
		var fresh linkmodel.State
		fresh.Seed(linkmodel.LinkSeed(ch.impairSeed, uint32(i), uint32(w.radio.id)))
		switch {
		case link == nil || link != r.links[w.radio.id]:
			return fmt.Errorf("radio %d -> %d: cache holds link %p, the radio owns %p", i, w.radio.id, link, r.links[w.radio.id])
		case *link != fresh:
			return fmt.Errorf("radio %d -> %d: link state %+v, want freshly seeded %+v", i, w.radio.id, *link, fresh)
		}
	}
	return nil
}

// neighborTrial runs one channel through epochs, link-model changes and an
// arena reset, checking caches against the reference as it goes. Between
// checks only some radios are queried, so caches are rebuilt from entries
// that are several epochs old.
func neighborTrial(seed int64, n int, dense bool) error {
	rng := rand.New(rand.NewSource(seed))
	sched := sim.NewScheduler(seed)
	model := newTour(rng, n, 14, dense)
	ch := NewMobileChannel(sched, model, 0)
	epoch := 0
	check := func(share float64) error {
		pos := model.at[min(epoch, len(model.at)-1)]
		for i := 0; i < n; i++ {
			if rng.Float64() < share {
				if err := checkCache(ch, pos, i); err != nil {
					return fmt.Errorf("epoch %d: %w", epoch, err)
				}
			}
		}
		return nil
	}
	tick := func(epochs int) error {
		for ; epochs > 0; epochs-- {
			epoch++
			sched.RunUntil(time.Duration(epoch) * DefaultUpdateInterval)
			if err := check(0.6); err != nil {
				return err
			}
		}
		return check(1)
	}
	loss := linkmodel.UniformLoss{P: 0.1}
	steps := []func(){
		func() {},
		func() { ch.SetLinkModel(loss, 0, 0, uint64(seed)) },
		func() { ch.SetLinkModel(loss, time.Microsecond, 0, uint64(seed)+1) },
		func() { ch.SetLinkModel(nil, 0, 0, 0) },
		func() {
			// An arena reset onto another placement and seed, impaired
			// again: the states of the first run must all be re-seeded.
			model = newTour(rng, n, 6, dense)
			epoch = 0
			sched.Reset(seed + 1)
			ch.Reset(model, 0)
			ch.SetLinkModel(loss, 0, 0, uint64(seed)+2)
		},
	}
	for s, step := range steps {
		step()
		if err := check(0.5); err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
		if err := tick(3); err != nil {
			return fmt.Errorf("step %d: %w", s, err)
		}
	}
	return nil
}

// TestNeighborCacheMatchesReference is the property behind the sort-free
// rebuild: whatever the radios did before, each cache equals the brute-force
// definition. Sizes straddle the bitset's word edges; seeds are fresh on every
// run (CI repeats it), and a failure prints the one to replay.
func TestNeighborCacheMatchesReference(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 130} {
		for _, dense := range []bool{true, false} {
			trial := func(seed int64) bool {
				if err := neighborTrial(seed, n, dense); err != nil {
					t.Errorf("n=%d dense=%v seed=%d: %v", n, dense, seed, err)
					return false
				}
				return true
			}
			if err := quick.Check(trial, &quick.Config{MaxCount: 6}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestNeighborEpochZeroAlloc: once the scratch buffers, both cache halves of
// every radio and the link states have grown, an epoch tick that moves every
// node plus a query of every radio allocates nothing — with the link model
// armed, so the link-state carry-over is on the path.
func TestNeighborEpochZeroAlloc(t *testing.T) {
	const n = 100
	// Homes on a 150 m grid, every node swaying a meter sideways on odd
	// epochs: sets are large, every cache is dirtied every epoch, and nobody
	// crosses a grid-cell border (which could grow a bucket).
	model := &scripted{n: n, at: func(i int, at sim.Time) geo.Point {
		sway := float64(at / DefaultUpdateInterval % 2)
		return geo.Point{X: 10 + float64(i%10)*150 + sway, Y: 10 + float64(i/10)*150}
	}}
	sched := sim.NewScheduler(1)
	ch := NewMobileChannel(sched, model, 0)
	ch.SetLinkModel(linkmodel.UniformLoss{P: 0.1}, time.Microsecond, 0, 1)
	epoch, sum := 0, 0
	round := func() {
		epoch++
		sched.RunUntil(time.Duration(epoch) * DefaultUpdateInterval)
		for id := 0; id < n; id++ {
			sum += ch.NeighborCount(pkt.NodeID(id))
		}
	}
	for i := 0; i < 3; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("epoch tick + %d neighbor rebuilds allocate %.1f times, want 0", n, allocs)
	}
	if sum < n*epoch*20 {
		t.Errorf("neighbor sets too small to mean anything: %d entries over %d epochs", sum, epoch)
	}
}

// grayZone is a link model that decodes out to the carrier-sense range, as
// linkmodel.DistanceLoss does, without losing a frame.
type grayZone struct{ linkmodel.Perfect }

func (grayZone) DecodeRange(_, csRange float64) float64 { return csRange }

// TestReachableAgreesWithDecodableBit: the link oracle and the neighbor
// caches must draw the decode boundary at the same distance, also when the
// link model moved it. Nodes 1 and 2 sit on either side of TxRange.
func TestReachableAgreesWithDecodableBit(t *testing.T) {
	_, ch, _ := setup(t, []geo.Point{{X: 0}, {X: 200}, {X: 400}, {X: 600}})
	agree := func() {
		t.Helper()
		for a := range ch.radios {
			inCache := map[pkt.NodeID]bool{}
			for _, nb := range ch.neighborsOf(ch.radios[a]) {
				inCache[nb.radio.id] = true
				if got := ch.Reachable(pkt.NodeID(a), nb.radio.id); got != nb.decodable {
					t.Errorf("Reachable(%d,%d) = %v, cache says decodable = %v", a, nb.radio.id, got, nb.decodable)
				}
			}
			for b := range ch.radios {
				if a != b && !inCache[pkt.NodeID(b)] && ch.Reachable(pkt.NodeID(a), pkt.NodeID(b)) {
					t.Errorf("Reachable(%d,%d) beyond carrier-sense range", a, b)
				}
			}
		}
	}
	agree()
	if ch.Reachable(0, 2) {
		t.Error("400 m link reachable at the default decode range")
	}
	ch.SetLinkModel(grayZone{}, 0, 0, 1)
	agree()
	if !ch.Reachable(0, 2) {
		t.Error("400 m link unreachable although the model decodes out to CSRange")
	}
	if !ch.Reachable(0, 1) || ch.Reachable(0, 3) {
		t.Errorf("Reachable(0,1), Reachable(0,3) = %v, %v; want true, false", ch.Reachable(0, 1), ch.Reachable(0, 3))
	}
}
