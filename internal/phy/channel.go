package phy

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"manetsim/internal/fault"
	"manetsim/internal/geo"
	"manetsim/internal/linkmodel"
	"manetsim/internal/mobility"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// Handler is the interface the MAC layer implements to receive PHY
// indications. All calls happen inside scheduler events, in a fixed order
// for simultaneous indications: frame delivery (RxFrame or RxCorrupted)
// before ChannelIdle.
type Handler interface {
	// RxFrame delivers a frame that was decoded without corruption.
	RxFrame(frame any, from pkt.NodeID)
	// RxCorrupted signals the end of a signal that could not be delivered
	// as a good frame: a collision-corrupted decode, sub-decode-threshold
	// noise (a transmission sensed from beyond TxRange), or a frame that
	// arrived while transmitting. 802.11 responds with EIFS deferral —
	// ns-2 behaves the same way for every errored reception, which is
	// what keeps hidden-terminal neighborhoods from firing into the
	// SIFS gaps of exchanges they cannot decode.
	RxCorrupted()
	// ChannelBusy signals energy appearing on an idle channel.
	ChannelBusy()
	// ChannelIdle signals all energy disappearing from the channel.
	ChannelIdle()
	// TxDone signals completion of this node's own transmission.
	TxDone()
}

// PositionModel provides node positions over simulated time. It is the
// channel's view of a mobility model (mobility.Model satisfies it);
// PositionAt is sampled with non-decreasing timestamps.
type PositionModel interface {
	Len() int
	PositionAt(i int, t sim.Time) geo.Point
	Static() bool
}

// CaptureThreshold is the power ratio (10 dB, linear 10x) above which an
// in-progress reception survives a new overlapping signal, matching ns-2's
// CPThresh_. Set Channel.NoCapture to disable (ablation).
const CaptureThreshold = 10.0

// DefaultUpdateInterval is the default position-update epoch period for
// channels with moving nodes. At 100 ms even a 20 m/s node drifts at most
// 2 m between epochs — under 1% of TxRange.
const DefaultUpdateInterval = 100 * time.Millisecond

// rxPower returns the relative received power over distance d using the
// two-ray ground model's d^-4 law (absolute scale is irrelevant — only
// ratios matter for capture).
func rxPower(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return 1 / (d * d * d * d)
}

// neighbor is a reachability entry from one radio to another, valid for one
// position epoch.
type neighbor struct {
	radio     *Radio
	propDelay time.Duration
	decodable bool    // within decode range (otherwise interference/carrier-sense only)
	rank      int32   // position in arrival order, (propDelay, id) ascending
	power     float64 // relative received power at the neighbor
	dist      float64 // link length in meters (input to distance-aware link models)
	// link is the impairment stream of the directed link to radio, resolved
	// when the cache is rebuilt; nil on an unimpaired channel. Whatever
	// invalidates link states (reset, SetLinkModel) also drops nbValid, so
	// the pointer never outlives its seeding.
	link *linkmodel.State
}

// Channel connects the radios of one scenario. Reachability is threshold
// based and queried over time: a spatial grid indexes current positions,
// per-radio neighbor sets are derived lazily from it and cached for one
// position epoch. Static scenarios build each cache exactly once; mobile
// scenarios refresh positions on a scheduled epoch tick.
type Channel struct {
	sched  *sim.Scheduler
	radios []*Radio //manetsim:resetsafe radio set persists; Reset rewinds each radio in place
	// NoCapture disables the 10 dB capture effect, making any overlapping
	// signal within interference range lethal (the ablation model).
	NoCapture bool

	model    PositionModel // nil once positions are frozen (static)
	interval time.Duration // epoch period (mobile channels only)
	grid     *spatialGrid

	// Link impairment (SetLinkModel). A nil impairment model is the
	// perfect channel: no per-link state is touched at all, so runs are
	// byte-identical to builds without the linkmodel subsystem.
	impair      linkmodel.Model
	maxJitter   time.Duration // per-frame delay jitter bound (0 = none)
	capture     float64       // capture power ratio (default CaptureThreshold)
	impairSeed  uint64        // run seed feeding the per-link streams
	decodeRange float64       // decode distance (TxRange unless the model extends it)

	// Fault plane (SetFaultPlane). A nil plane — or a quiet one — is the
	// fault-free channel: a single counter comparison is the only cost the
	// hot path ever pays.
	faults *fault.Plane

	// Scratch for refreshPositions: the radios that moved this epoch and
	// their previous positions. Reused across epochs, never escapes.
	moved    []*Radio    //manetsim:resetsafe scratch, truncated at the start of every epoch tick
	movedOld []geo.Point //manetsim:resetsafe scratch, truncated alongside moved
	// Scratch for neighborsOf, reused across rebuilds: the distance to and
	// the membership bit of every in-range radio, indexed by node id, and
	// the packed arrival-order keys.
	dist    []float64 //manetsim:resetsafe scratch, written for every id before it is read
	inRange []uint64  //manetsim:resetsafe scratch, every rebuild leaves it all zero
	keys    []uint64  //manetsim:resetsafe scratch, truncated at the start of every rebuild

	// Freelist of per-transmission records. A transmission needs one
	// txRecord, which carries its per-receiver signals inline and is
	// recycled when its walk ends, so steady-state traffic does not
	// allocate. txs lists every record the channel ever made, so Reset can
	// reclaim the ones still on the air when the previous run stopped.
	// liveTx counts records handed out and not yet returned: zero whenever
	// the scheduler has drained (a conservation check for tests).
	freeTx *txRecord   //manetsim:resetsafe Reset relinks every record onto it
	txs    []*txRecord //manetsim:resetsafe the channel owns its records for life
	liveTx int
}

// NewChannel creates a channel for nodes frozen at the given positions and
// returns it with one radio per node. The handler for each radio must be
// set with Radio.SetHandler before any traffic flows.
func NewChannel(sched *sim.Scheduler, positions []geo.Point) *Channel {
	return NewMobileChannel(sched, mobility.NewStationary(positions), 0)
}

// NewMobileChannel creates a channel whose node positions follow model,
// sampled every interval (DefaultUpdateInterval when interval <= 0).
// Between epochs positions are treated as frozen, so the approximation
// error is bounded by maxSpeed*interval. A static model degenerates to
// NewChannel: no epochs are ever scheduled. Reset places the radios.
func NewMobileChannel(sched *sim.Scheduler, model PositionModel, interval time.Duration) *Channel {
	n := model.Len()
	c := &Channel{
		sched:   sched,
		radios:  make([]*Radio, n),
		grid:    newSpatialGrid(CSRange),
		dist:    make([]float64, n),
		inRange: make([]uint64, (n+63)/64),
	}
	for i := range c.radios {
		c.radios[i] = &Radio{ch: c, id: pkt.NodeID(i)}
	}
	c.Reset(model, interval)
	return c
}

// Reset sets the channel up for a run over its radio set; NewMobileChannel
// ends with it. The grid is re-bucketed from the model's initial positions
// (each sampled once), every radio returns to its zero state, and (for
// non-static models) the epoch tick is armed. On reuse, the caller must
// Reset the scheduler first — that sweeps the previous run's pending
// transmission events. Every txRecord the channel ever made then goes back
// on the freelist, the in-flight ones included, so a record held across
// Reset is recycled, not orphaned; the MAC frames they referenced are
// reclaimed by the MAC's own reset.
func (c *Channel) Reset(model PositionModel, interval time.Duration) {
	if model == nil {
		panic("phy: nil position model")
	}
	if model.Len() != len(c.radios) {
		panic(fmt.Sprintf("phy: Reset model has %d nodes, channel has %d radios", model.Len(), len(c.radios)))
	}
	if interval <= 0 {
		interval = DefaultUpdateInterval
	}
	c.NoCapture = false
	c.SetLinkModel(nil, 0, 0, 0)
	c.faults = nil
	c.freeTx = nil
	for _, t := range c.txs {
		c.putTx(t)
	}
	c.liveTx = 0
	c.grid.reset()
	now := c.sched.Now()
	for i, r := range c.radios {
		r.reset(model.PositionAt(i, now))
		c.grid.insert(r)
	}
	c.model, c.interval = nil, 0
	if !model.Static() {
		c.model, c.interval = model, interval
		c.sched.AfterFunc(interval, refreshPositionsFn, c)
	}
}

// SetLinkModel installs a link-impairment model on the channel: per-frame
// corruption draws from model, uniform per-frame delay jitter in
// [0, maxJitter), and an overridden capture power ratio (0 keeps the
// default CaptureThreshold; NoCapture still disables capture entirely).
// The per-directed-link random streams derive from seed, so two runs with
// the same seed — fresh or over a reused arena — take identical draws.
//
// A nil model (or linkmodel.Perfect) with zero jitter restores the
// perfect channel. Call after construction or Reset, before traffic
// flows; the model is consulted once per (frame, receiver) on the
// transmit path and must not change mid-run.
func (c *Channel) SetLinkModel(model linkmodel.Model, maxJitter time.Duration, captureRatio float64, seed uint64) {
	if _, perfect := model.(linkmodel.Perfect); perfect {
		model = nil
	}
	c.impair = model
	c.maxJitter = maxJitter
	c.capture = CaptureThreshold
	if captureRatio > 0 {
		c.capture = captureRatio
	}
	c.impairSeed = seed
	c.decodeRange = TxRange
	if model != nil {
		c.decodeRange = model.DecodeRange(TxRange, CSRange)
	}
	// Decodability and the per-link streams both changed shape: rebuild
	// neighbor caches lazily and re-seed link states on next use.
	for _, r := range c.radios {
		r.nbValid = false
		for _, st := range r.links {
			st.Invalidate()
		}
	}
}

// SetFaultPlane installs the run's fault plane: frame copies over severed
// links are forced undecodable (before any link-model loss draw, so the two
// subsystems compose without perturbing each other's streams), crashed
// nodes neither decode nor indicate to their MAC, and Reachable reflects
// severed links so routing classifies give-ups toward them as true
// failures. A nil plane restores the fault-free channel. Call after
// construction or Reset, before traffic flows.
func (c *Channel) SetFaultPlane(p *fault.Plane) { c.faults = p }

// refreshPositionsFn is the scheduler trampoline for the epoch tick, so
// re-arming it never allocates a method-value closure.
func refreshPositionsFn(a any) { a.(*Channel).refreshPositions() }

// refreshPositions is the epoch tick: re-sample every radio's position from
// the model, re-bucket movers in the grid, and invalidate exactly the
// neighbor caches the movement could have changed. Cache maintenance is
// O(moved): each mover dirties itself plus the radios near its old and new
// positions. When a large fraction of the network moved (the dense regime),
// per-mover marking would visit most radios several times over, so the tick
// falls back to invalidating everything in one pass.
func (c *Channel) refreshPositions() {
	now := c.sched.Now()
	c.moved = c.moved[:0]
	c.movedOld = c.movedOld[:0]
	for _, r := range c.radios {
		p := c.model.PositionAt(int(r.id), now)
		if p != r.pos {
			c.moved = append(c.moved, r)
			c.movedOld = append(c.movedOld, r.pos)
			r.pos = p
			c.grid.move(r, c.movedOld[len(c.movedOld)-1])
		}
	}
	switch {
	case len(c.moved) == 0:
		// Nothing moved: every cache stays valid.
	case 4*len(c.moved) >= len(c.radios):
		for _, r := range c.radios {
			r.nbValid = false
		}
	default:
		for i, r := range c.moved {
			r.nbValid = false
			c.markNear(c.movedOld[i])
			c.markNear(r.pos)
		}
	}
	c.sched.AfterFunc(c.interval, refreshPositionsFn, c)
}

// markNear invalidates the neighbor caches of every radio that could have p
// inside its carrier-sense range. The cell block over-approximates;
// over-marking only costs a rebuild, never correctness — rebuilt sets are
// exact (distance-filtered and id-ordered), so dirty marking changes when
// caches rebuild but never what they contain.
func (c *Channel) markNear(p geo.Point) {
	lo, hi := c.grid.span(p, CSRange)
	for x := lo.x; x <= hi.x; x++ {
		for y := lo.y; y <= hi.y; y++ {
			for _, r := range c.grid.cells[cellKey{x, y}] {
				r.nbValid = false
			}
		}
	}
}

// nearSq is the squared pre-reject radius of a neighbor rebuild: CSRange
// plus a meter of slack, so the cheap squared test never drops a candidate
// the exact Distance test (which decides, and whose value is kept) admits.
const nearSq = (CSRange + 1) * (CSRange + 1)

// departed marks the arrival-order slot of a neighbor that left the set.
const departed = ^uint64(0)

// neighborsOf returns r's current neighbor set, rebuilding the cached slice
// from the spatial grid when an epoch tick dirtied it. Entries are
// ordered by node id so sequence numbers and link-model draws — and
// therefore whole runs — stay deterministic regardless of grid-map
// iteration order; each entry's rank is its place in arrival order, which
// is where Transmit files the copy so the walk needs no sorting. The cache
// check is all there is to a hit, so it inlines into Transmit.
//
//manetsim:hotpath
func (c *Channel) neighborsOf(r *Radio) []neighbor {
	if r.nbValid {
		return r.nbCache
	}
	return c.rebuildNeighbors(r)
}

// rebuildNeighbors recomputes r's neighbor cache for the current positions.
// It sorts nothing and allocates nothing: in-range ids are collected in a
// bitset and read back in id order, the previous cache — walked alongside —
// hands each surviving neighbor its link state and its old arrival rank, and
// the arrival order of the last epoch, which movement between two epochs
// barely disturbs, is repaired by insertion.
//
//manetsim:hotpath
func (c *Channel) rebuildNeighbors(r *Radio) []neighbor {
	lo, hi := c.grid.span(r.pos, CSRange)
	for x := lo.x; x <= hi.x; x++ {
		for y := lo.y; y <= hi.y; y++ {
			for _, o := range c.grid.cells[cellKey{x, y}] {
				dx, dy := o.pos.X-r.pos.X, o.pos.Y-r.pos.Y
				if dx*dx+dy*dy > nearSq || o == r {
					continue
				}
				if d := r.pos.Distance(o.pos); d <= CSRange {
					c.dist[o.id] = d
					c.inRange[o.id>>6] |= 1 << (o.id & 63)
				}
			}
		}
	}
	// keys[:len(prev)] are last epoch's arrival slots, filled by the
	// survivors; newcomers queue up behind them.
	prev := r.nbCache
	next := r.nbSpare[:0]
	c.keys = c.keys[:0]
	for range prev {
		c.keys = append(c.keys, departed)
	}
	impaired := c.impaired()
	j := 0
	for w, word := range c.inRange {
		c.inRange[w] = 0
		for ; word != 0; word &= word - 1 {
			id := pkt.NodeID(w<<6 | bits.TrailingZeros64(word))
			d := c.dist[id]
			nb := neighbor{
				radio:     c.radios[id],
				propDelay: PropagationDelay(d),
				decodable: d <= c.decodeRange,
				power:     rxPower(d),
				dist:      d,
			}
			key := uint64(nb.propDelay)<<32 | uint64(len(next))
			for j < len(prev) && prev[j].radio.id < id {
				j++
			}
			if j < len(prev) && prev[j].radio.id == id {
				c.keys[prev[j].rank] = key
				nb.link = prev[j].link
			} else {
				c.keys = append(c.keys, key)
			}
			if !impaired {
				nb.link = nil
			} else if nb.link == nil || !nb.link.Seeded() {
				nb.link = r.linkState(id)
			}
			next = append(next, nb)
		}
	}
	// Close the gaps the departed left, then repair the order: the key
	// propDelay<<32|index compares as (propDelay, id) does.
	order := c.keys[:0]
	for _, key := range c.keys {
		if key != departed {
			order = append(order, key)
		}
	}
	for i := 1; i < len(order); i++ {
		key := order[i]
		k := i
		for ; k > 0 && order[k-1] > key; k-- {
			order[k] = order[k-1]
		}
		order[k] = key
	}
	for rank, key := range order {
		next[uint32(key)].rank = int32(rank)
	}
	r.nbCache, r.nbSpare = next, prev
	r.nbValid = true
	return next
}

// impaired reports whether frame copies take per-link draws (loss, jitter).
func (c *Channel) impaired() bool { return c.impair != nil || c.maxJitter > 0 }

// Radio returns the radio of node id.
func (c *Channel) Radio(id pkt.NodeID) *Radio { return c.radios[id] }

// Distance returns the current distance between two nodes (as of the last
// position epoch).
func (c *Channel) Distance(a, b pkt.NodeID) float64 {
	return c.radios[a].pos.Distance(c.radios[b].pos)
}

// Reachable reports whether b is currently within decode range of a (the
// range neighbor caches mark decodable: TxRange unless the link model
// extends it) over a non-severed link. It is the omniscient link oracle
// routing layers use to classify a MAC give-up as a genuine route break (the
// hop moved away, crashed, or sits behind a blackout or partition) or a
// false one (contention on a healthy link).
func (c *Channel) Reachable(a, b pkt.NodeID) bool {
	if !c.faults.Quiet() && c.faults.Severed(a, b) {
		return false
	}
	return c.Distance(a, b) <= c.decodeRange
}

// NeighborCount returns the size of the node's current neighbor set
// (carrier-sense range). It shares the per-epoch cache with transmissions;
// diagnostics and benchmarks use it to drive the neighbor-query path.
func (c *Channel) NeighborCount(id pkt.NodeID) int {
	return len(c.neighborsOf(c.radios[id]))
}

// signal is one transmission as perceived by one receiver. Signals live
// inline in their transmission's txRecord; Radio.decoding points into that
// array, which is stable from Transmit until the record retires.
type signal struct {
	to        *Radio
	start     sim.Time // arrival of the first bit; the last leaves at start+airtime
	seq       uint64   // sequence number of the start sub-event; the end's is seq+1
	power     float64
	decodable bool
}

// before orders two sub-event keys the way the scheduler orders events.
func before(t1 sim.Time, q1 uint64, t2 sim.Time, q2 uint64) bool {
	return t1 < t2 || t1 == t2 && q1 < q2
}

// byArrival orders signals by (start, seq). Transmit files them by the
// neighbor cache's arrival rank, so only jitter leaves sorting to do. A
// package-level function, so sorting with it allocates nothing.
func byArrival(a, b signal) int {
	return cmp.Or(cmp.Compare(a.start, b.start), cmp.Compare(a.seq, b.seq))
}

// The sub-events of one transmission to k receivers: k signal starts, k
// signal ends and the sender's txDone.
const (
	stepStart = iota
	stepEnd
	stepTxDone
)

// txRecord is one transmission on the air. It owns a single scheduler
// entry that walks the 2k+1 sub-events in (time, seq) order under sequence
// numbers reserved in Transmit — start of neighbor i (id order) = base+2i,
// its end = base+2i+1, txDone = base+2k, the numbers 2k+1 separate events
// scheduled in that order would draw. Keys being equal and (time, seq)
// being a total order, the walk dispatches exactly as those events would,
// whether a sub-event is reached through the queue or run ahead inline
// (txStepFn).
type txRecord struct {
	frame   any
	owner   *Radio
	airtime time.Duration
	sigs    []signal // in arrival order, so ends (start+airtime, seq+1) are too

	started, ended int // sigs[:started] have begun, sigs[:ended] are off the air
	doneAt         sim.Time
	doneSeq        uint64
	donePending    bool
	step           int // the sub-event the scheduled entry stands for

	next *txRecord // freelist link

	// A record lives as long as its channel, and a Campaign runs Worlds
	// on several threads at once. Padding the record to 128 bytes, a size
	// class the allocator lays out on cache-line boundaries, keeps another
	// World's record off the lines this one's walk writes.
	_ [16]byte
}

func (c *Channel) getTx() *txRecord {
	c.liveTx++
	t := c.freeTx
	if t != nil {
		c.freeTx = t.next
		t.next = nil
		return t
	}
	t = &txRecord{}
	c.txs = append(c.txs, t)
	return t
}

func (c *Channel) putTx(t *txRecord) {
	c.liveTx--
	t.frame = nil
	t.owner = nil
	t.next = c.freeTx
	c.freeTx = t
}

// txStepFn is the scheduler callback of a transmission: run the sub-event
// the entry stands for, pick the next by a three-way merge of the next
// start, the next end and txDone, and keep walking while that key is also
// the scheduler's (sim.Advance) — a sub-event runs inline only when it
// would have been the next Step anyway. When something else is due first,
// or the run is stopping, re-key the entry to the next sub-event
// (sim.Refire) and return. A package-level function plus an argument, so
// Transmit schedules without allocating a closure.
//
//manetsim:hotpath
func txStepFn(a any) {
	tx := a.(*txRecord)
	ch := tx.owner.ch
	step := tx.step
	for {
		switch step {
		case stepStart:
			s := &tx.sigs[tx.started]
			tx.started++
			s.to.signalStart(s)
		case stepEnd:
			s := &tx.sigs[tx.ended]
			tx.ended++
			s.to.signalEnd(tx, s)
			if tx.ended == len(tx.sigs) {
				tx.owner.frameDone(tx.frame)
			}
		case stepTxDone:
			tx.donePending = false
			tx.owner.txDone()
		}
		var at sim.Time
		var seq uint64
		ok := tx.donePending
		if ok {
			at, seq, step = tx.doneAt, tx.doneSeq, stepTxDone
		}
		if tx.ended < len(tx.sigs) {
			s := &tx.sigs[tx.ended]
			if t, q := s.start+tx.airtime, s.seq+1; !ok || before(t, q, at, seq) {
				at, seq, ok, step = t, q, true, stepEnd
			}
		}
		if tx.started < len(tx.sigs) {
			s := &tx.sigs[tx.started]
			if !ok || before(s.start, s.seq, at, seq) {
				at, seq, ok, step = s.start, s.seq, true, stepStart
			}
		}
		if !ok {
			ch.putTx(tx)
			return
		}
		if !ch.sched.Advance(at, seq) {
			tx.step = step
			ch.sched.Refire(at, seq)
			return
		}
	}
}

// Radio is the physical layer of one node: it transmits frames onto the
// channel and tracks the signals currently on the air at its own position
// to implement carrier sensing and the no-capture collision model.
type Radio struct {
	ch      *Channel
	id      pkt.NodeID
	pos     geo.Point // current position (updated each epoch)
	handler Handler

	// OnFrameReleased, if set, fires once the channel holds no more
	// references to a transmitted frame (every receiver's copy is off the
	// air). The MAC uses it to recycle frame objects.
	OnFrameReleased func(frame any)

	// Neighbor cache, invalidated by epoch ticks that move this radio or
	// one of its (old or new) surroundings. A rebuild reads the outgoing
	// cache while it fills nbSpare, then swaps the two.
	nbCache []neighbor
	nbSpare []neighbor //manetsim:resetsafe scratch, truncated at the start of every rebuild
	nbValid bool

	// Per-directed-link impairment streams, keyed by receiver and seeded
	// from the channel's impairSeed (see linkState). Entries are carved
	// from linkSlab once per link ever contacted and reused across arena
	// runs; the map owns them, the transmit path reads them through the
	// neighbor cache.
	links    map[pkt.NodeID]*linkmodel.State
	linkSlab []linkmodel.State //manetsim:resetsafe unused tail of the current slab; carved states live in links

	txUntil   sim.Time // end of own transmission (0 => not transmitting)
	airCount  int      // signals currently arriving (any strength)
	decoding  *signal  // frame currently being decoded, if any
	corrupted bool     // decoding frame got hit by a collision

	// Energy accounting (time integrals of radio states).
	txTime, rxTime time.Duration

	// Counters for link-level diagnostics.
	FramesSent      uint64
	FramesDelivered uint64
	Collisions      uint64 // receptions corrupted at this node
	FramesImpaired  uint64 // outgoing frame copies killed by the link model
	FramesFaulted   uint64 // outgoing frame copies killed by the fault plane
}

// linkState returns the impairment stream of the directed link from this
// radio to the given receiver, creating it on first contact and seeding it
// if a reset (or SetLinkModel) invalidated it. Called once per neighbor and
// cache rebuild, so steady-state traffic neither allocates nor looks up.
func (r *Radio) linkState(to pkt.NodeID) *linkmodel.State {
	st := r.links[to]
	if st == nil {
		if r.links == nil {
			r.links = make(map[pkt.NodeID]*linkmodel.State, 8)
		}
		if len(r.linkSlab) == 0 {
			// Each slab is as large as all earlier ones together, so a
			// radio allocates O(log links) times.
			r.linkSlab = make([]linkmodel.State, max(8, len(r.links)))
		}
		st = &r.linkSlab[0]
		r.linkSlab = r.linkSlab[1:]
		r.links[to] = st
	}
	if !st.Seeded() {
		st.Seed(linkmodel.LinkSeed(r.ch.impairSeed, uint32(r.id), uint32(to)))
	}
	return st
}

// reset returns the radio to its just-constructed state at pos, keeping
// the neighbor-cache capacity. The caller re-inserts it into the grid and
// reinstalls the handler (the MAC does so in its own reset).
func (r *Radio) reset(pos geo.Point) {
	r.pos = pos
	r.handler = nil
	r.OnFrameReleased = nil
	r.nbCache = r.nbCache[:0]
	r.nbValid = false
	r.txUntil = 0
	r.airCount = 0
	r.decoding = nil
	r.corrupted = false
	r.txTime = 0
	r.rxTime = 0
	r.FramesSent = 0
	r.FramesDelivered = 0
	r.Collisions = 0
	r.FramesImpaired = 0
	r.FramesFaulted = 0
	// Keep the link-state allocations; invalidate so the next run's seed
	// re-seeds each stream on first use.
	for _, st := range r.links {
		st.Invalidate()
	}
}

// SetHandler installs the MAC-layer handler.
func (r *Radio) SetHandler(h Handler) { r.handler = h }

// ID returns the node id this radio belongs to.
func (r *Radio) ID() pkt.NodeID { return r.id }

// Pos returns the radio position as of the last position epoch.
func (r *Radio) Pos() geo.Point { return r.pos }

// Transmitting reports whether the radio is mid-transmission.
func (r *Radio) Transmitting() bool { return r.txUntil > r.ch.sched.Now() }

// Idle reports whether the physical channel is sensed idle at this radio:
// no energy on the air and not transmitting.
func (r *Radio) Idle() bool { return r.airCount == 0 && !r.Transmitting() }

// TxTime returns cumulative transmission time (for the energy model).
func (r *Radio) TxTime() time.Duration { return r.txTime }

// RxTime returns cumulative decode time (for the energy model).
func (r *Radio) RxTime() time.Duration { return r.rxTime }

// Transmit puts a frame on the air for the given duration. The caller (the
// MAC) is responsible for carrier sensing; the radio transmits
// unconditionally, exactly like hardware. TxDone fires on the handler when
// the transmission completes. Reachability, propagation delay and received
// power are snapshotted at transmission start from the current positions.
//
//manetsim:hotpath
func (r *Radio) Transmit(frame any, airtime time.Duration) {
	now := r.ch.sched.Now()
	if r.Transmitting() {
		panic(fmt.Sprintf("phy: node %d transmit while transmitting", r.id))
	}
	if airtime <= 0 {
		panic(fmt.Sprintf("phy: non-positive airtime %v", airtime))
	}
	// Half duplex: starting to transmit destroys any in-progress decode.
	if r.decoding != nil {
		r.corrupted = true
	}
	r.txUntil = now + airtime
	r.txTime += airtime
	r.FramesSent++
	neighbors := r.ch.neighborsOf(r)
	k := len(neighbors)
	base := r.ch.sched.ReserveSeq(2*k + 1)
	tx := r.ch.getTx()
	tx.frame = frame
	tx.owner = r
	tx.airtime = airtime
	tx.sigs = slices.Grow(tx.sigs[:0], k)[:k]
	tx.started, tx.ended = 0, 0
	tx.doneAt, tx.doneSeq, tx.donePending = r.txUntil, base+2*uint64(k), true
	impaired := r.ch.impaired()
	faulted := !r.ch.faults.Quiet()
	for i := range neighbors {
		nb := &neighbors[i]
		s := &tx.sigs[nb.rank]
		s.to = nb.radio
		s.start = now + nb.propDelay
		s.seq = base + 2*uint64(i)
		s.power = nb.power
		s.decodable = nb.decodable
		// A severed link (crashed endpoint, blackout, partition) kills
		// the copy before any impairment draw: the frame still radiates
		// as noise, but the link model never sees it, so fault and loss
		// streams compose without cross-talk.
		if faulted && s.decodable && r.ch.faults.Severed(r.id, nb.radio.id) {
			s.decodable = false
			r.FramesFaulted++
		}
		if impaired {
			// Per-link draws in neighbor (id) order: one corruption
			// draw per decodable copy, one jitter draw per copy. A
			// corrupted copy still radiates — it arrives as noise
			// (RxCorrupted/EIFS at the receiver), exactly like a
			// sub-threshold signal.
			st := nb.link
			if s.decodable && r.ch.impair != nil && r.ch.impair.Corrupt(st, nb.dist) {
				s.decodable = false
				r.FramesImpaired++
			}
			if r.ch.maxJitter > 0 {
				s.start += time.Duration(st.Float64() * float64(r.ch.maxJitter))
			}
		}
	}
	if r.ch.maxJitter > 0 {
		slices.SortFunc(tx.sigs, byArrival)
	}
	if k == 0 {
		// Nobody can hear the frame: the channel never references it.
		r.frameDone(frame)
	}
	// Every end follows its own start, so the walk opens on the first start
	// or, with nobody in range, on txDone; txStepFn merges from there.
	at, seq := tx.doneAt, tx.doneSeq
	tx.step = stepTxDone
	if k > 0 && before(tx.sigs[0].start, tx.sigs[0].seq, at, seq) {
		at, seq = tx.sigs[0].start, tx.sigs[0].seq
		tx.step = stepStart
	}
	r.ch.sched.AtFuncSeq(at, seq, txStepFn, tx)
}

// txDone completes the radio's own transmission.
func (r *Radio) txDone() {
	r.txUntil = 0
	// A node that crashed mid-transmission finishes the frame on the air
	// (frame-granularity crash boundary) but its MAC is deactivated, so
	// the completion indication is dropped.
	if r.ch.faults.NodeDown(r.id) {
		return
	}
	r.handler.TxDone()
}

// frameDone reports the frame back to the owner once the channel is done
// with it.
func (r *Radio) frameDone(frame any) {
	if r.OnFrameReleased != nil {
		r.OnFrameReleased(frame)
	}
}

// signalStart registers energy arriving at this radio and decides whether a
// decode begins. Decoding starts only when the frame is within transmission
// range, the radio is not transmitting, and no other energy is present —
// any concurrent signal within interference range prevents or corrupts
// reception (no capture).
func (r *Radio) signalStart(s *signal) {
	wasIdle := r.airCount == 0
	r.airCount++
	// A crashed node keeps the air bookkeeping consistent (its signal ends
	// still retire) but neither decodes nor indicates to its MAC.
	if r.ch.faults.NodeDown(r.id) {
		return
	}
	switch {
	case r.Transmitting():
		// Half duplex: nothing receivable during own transmission.
	case r.decoding != nil:
		// Overlap with an in-progress decode. ns-2 semantics: if the
		// locked frame is stronger by the capture ratio (default 10 dB,
		// overridable via SetLinkModel) the new signal is mere noise
		// (capture); otherwise both are lost. The new signal is never
		// decoded either way — the receiver stays locked.
		if r.ch.NoCapture || r.decoding.power < r.ch.capture*s.power {
			r.corrupted = true
		}
	case s.decodable && wasIdle:
		r.decoding = s
		r.corrupted = false
	}
	if wasIdle && !r.Transmitting() {
		r.handler.ChannelBusy()
	}
}

// signalEnd removes a signal from the air, completing its decode if it was
// the one being received. Delivery happens before a possible ChannelIdle
// indication so the MAC sees NAV updates first. Signals that end without a
// successful delivery — noise from beyond decode range, corrupted decodes,
// or anything overlapping our own transmission — report RxCorrupted so the
// MAC applies EIFS.
func (r *Radio) signalEnd(tx *txRecord, s *signal) {
	r.airCount--
	if r.ch.faults.NodeDown(r.id) {
		// Crashed receiver: retire the signal silently, abandoning any
		// decode that was in progress when the node went down.
		if r.decoding == s {
			r.decoding = nil
			r.corrupted = false
		}
		return
	}
	switch {
	case r.decoding == s:
		r.decoding = nil
		r.rxTime += tx.airtime
		if r.Transmitting() || r.corrupted {
			r.Collisions++
			r.handler.RxCorrupted()
		} else {
			r.FramesDelivered++
			r.handler.RxFrame(tx.frame, tx.owner.id)
		}
		r.corrupted = false
	default:
		r.handler.RxCorrupted()
	}
	if r.airCount == 0 && !r.Transmitting() {
		r.handler.ChannelIdle()
	}
}
