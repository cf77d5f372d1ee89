package core

import (
	"context"
	"fmt"
	"sort"
	"time"

	"manetsim/internal/aodv"
	"manetsim/internal/fault"
	"manetsim/internal/geo"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/stats"
	"manetsim/internal/tcp"
)

// scenarioState holds the live state of one run. A World keeps one across
// runs as an arena: reset then build rewinds every layer whose shape still
// fits in place instead of reallocating it.
type scenarioState struct {
	cfg   Config
	obs   *Observer
	sched *sim.Scheduler
	uids  pkt.Pool
	// deliverFn is the deliverLocal method value, bound once: evaluating
	// it per router and build would allocate a closure each time.
	deliverFn func(p *pkt.Packet)

	positions []geo.Point
	flows     []Flow
	channel   *phy.Channel
	stacks    []*stack       // per node
	routers   []*aodv.Router // per node, nil entries under static routing
	// slots is the flow table: slots[i] holds flow i's endpoints. It only
	// grows, so endpoints built for a flow index survive runs with fewer
	// flows; a slot reused for a different flow is rebound by the
	// endpoints' Reset.
	slots []flowSlot

	// Routing arenas, preserved across runs and indexed by node: a reused
	// World resets these instead of reallocating them.
	arenaRouters []*aodv.Router
	statics      []*aodv.StaticRouter
	adj          [][]int // TxRange adjacency the statics route over; nil when they do not match positions

	// Fault plane. plane points at arenaPlane exactly when the run
	// schedules faults, and is nil otherwise.
	// injectors holds the built fault schedule, and outages/marks the
	// recovery bookkeeping behind Result.Faults.
	plane      *fault.Plane
	arenaPlane fault.Plane
	injectors  []fault.Fault
	outages    []OutageReport
	marks      []recoveryMark
	nextMark   int

	deliveredDuring int64 // deliveries while >=1 fault active

	delivered   int64
	nextBatchAt int64
	delay       *stats.DurationHistogram

	batches []Batch
	cur     Batch // batch being accumulated
	// Backing arrays the batches' per-flow slices are carved from. Like
	// batches they are made fresh for every run: the previous run's Result
	// still aliases its own.
	batchPackets []int64
	batchRtx     []uint64
	batchWindow  []float64
	// aggBuf is Result.aggregate's scratch, reused run after run.
	aggBuf []float64

	// Cumulative counters snapshotted at the previous batch boundary.
	lastDrops        uint64
	lastSubmit       uint64
	lastFailures     uint64
	lastTrueFailures uint64
}

// reset sets the run-global state up for a run; every run, a World's first
// included, starts with it. The batches slice and the arrays its per-flow
// slices are carved from are dropped, never truncated: the previous run's
// Result aliases them.
func (s *scenarioState) reset(seed int64) {
	s.sched.Reset(seed)
	s.uids.Reset()
	s.delay.Reset()
	s.delivered = 0
	s.nextBatchAt = 0
	s.batches = nil
	s.batchPackets, s.batchRtx, s.batchWindow = nil, nil, nil
	s.cur = Batch{}
	s.lastDrops, s.lastSubmit = 0, 0
	s.lastFailures, s.lastTrueFailures = 0, 0
}

// resetSlice returns a zeroed slice of length n, reusing the backing array
// when its capacity suffices.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	var zero T
	for i := range s {
		s[i] = zero
	}
	return s
}

// growSlice returns a slice of length n preserving existing entries —
// including ones beyond the previous length but within capacity, so arena
// slots survive a run with fewer flows or nodes.
func growSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		ns := make([]T, n)
		copy(ns, s)
		return ns
	}
	return s[:n]
}

// recoveryMark is one pending recovery measurement: the first delivery at
// or after t resolves it (see OutageReport).
type recoveryMark struct {
	t         sim.Time
	outage    int
	afterHeal bool
}

// geoEqual reports element-wise equality of two placements.
func geoEqual(a, b []geo.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Run executes one configured simulation and returns its measurements.
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// ctxCheckInterval is how many dispatched events — callbacks, as
// Scheduler.Dispatched counts them, each sub-event of a transmission being
// one — pass between context polls: small enough that cancellation lands
// within a fraction of a millisecond of wall time, large enough that the
// poll never shows up in a profile.
const ctxCheckInterval = 4096

// RunContext executes one configured simulation under ctx and returns its
// measurements. Cancellation is polled from inside the event loop every few
// thousand events; a cancelled run returns ctx.Err() promptly and discards
// its partial state. A background (non-cancellable) context takes the exact
// code path of Run, so reproducibility and the allocation-free hot path are
// unaffected. A fresh run is a World used once: there is no other build
// path.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	return NewWorld().RunContext(ctx, cfg)
}

// finishRun executes the built simulation and assembles its Result — the
// second half of World.RunContext, after the build or reset.
func (s *scenarioState) finishRun(ctx context.Context) (*Result, error) {
	cfg := s.cfg
	s.start()
	if done := ctx.Done(); done != nil {
		if err := s.sched.RunUntilWithCheck(cfg.MaxSimTime, ctxCheckInterval, ctx.Err); err != nil {
			return nil, err
		}
	} else {
		s.sched.RunUntil(cfg.MaxSimTime)
	}

	res := &Result{
		Config:    cfg,
		Flows:     s.flows,
		Delivered: s.delivered,
		SimTime:   s.sched.Now(),
		Truncated: s.delivered < cfg.TotalPackets,
	}
	warm := cfg.WarmupBatches
	if warm > len(s.batches) {
		warm = len(s.batches)
	}
	res.Batches = s.batches[warm:]
	s.aggBuf = res.aggregate(s.aggBuf)
	s.fillEnergy(res)
	for _, st := range s.stacks {
		res.ImpairedFrames += st.radio.FramesImpaired
	}
	if s.plane != nil {
		res.Faults = s.faultReport(res)
	}
	if s.delay.N() > 0 {
		res.Delay = DelaySummary{
			Mean: s.delay.Mean(),
			P50:  s.delay.Quantile(0.5),
			P95:  s.delay.Quantile(0.95),
			Max:  s.delay.Max(),
			N:    s.delay.N(),
		}
	}
	return res, nil
}

// build materializes the scenario into stacks and flows, after reset. Every
// layer whose shape still fits is rewound in place by its Reset; anything
// missing or whose shape changed — node count, placement-derived static
// routes — is constructed, and every constructor ends with that same Reset.
// Reuse is read from the state (stacks for this node count, an unchanged
// placement), so a World's first run is the one where nothing fits. Neither
// path draws from the random stream, so arena runs match fresh ones.
func (s *scenarioState) build() error {
	scn := s.cfg.Scenario
	pts, flows, err := scn.materialize(s.sched.Rand())
	if err != nil {
		return err
	}
	samePlacement := geoEqual(s.positions, pts)
	s.positions = pts
	s.flows = flows

	// Mobility models are cheap and draw nothing at construction; always
	// rebuilding keeps the reuse path trivially draw-order identical.
	model, err := buildMobility(scn.Mobility, pts, flows, s.sched.Rand())
	if err != nil {
		return err
	}
	if scn.Routing == RoutingStatic && !model.Static() {
		return errStaticMobility
	}
	macCfg := mac.Config{DataRate: s.cfg.Bandwidth, RTSThreshold: s.cfg.RTSThreshold}
	if s.channel != nil && len(s.stacks) == len(pts) {
		s.channel.Reset(model, scn.Mobility.UpdateInterval)
		for _, st := range s.stacks {
			st.mac.Reset(macCfg)
		}
	} else {
		s.channel = phy.NewMobileChannel(s.sched, model, scn.Mobility.UpdateInterval)
		s.stacks = make([]*stack, len(pts))
		for i := range pts {
			s.stacks[i] = newStack(s.sched, s.channel.Radio(pkt.NodeID(i)), macCfg)
		}
		// Routing entities hold MAC bindings from the torn-down stacks.
		s.arenaRouters = nil
		s.statics = nil
		s.adj = nil
	}
	ch := s.channel
	ch.NoCapture = s.cfg.NoCapture
	// The impairment model rides on the channel: per-link streams derive
	// from the run seed, so fresh and arena runs draw identically.
	impair, err := buildLinkModel(s.cfg.LinkModel)
	if err != nil {
		return err
	}
	ch.SetLinkModel(impair, s.cfg.LinkModel.Jitter, s.cfg.LinkModel.CaptureRatio, uint64(s.cfg.Seed))
	// The fault plane rides on the channel the same way: installed fresh
	// every build (channel Reset cleared it), non-nil exactly when the run
	// schedules faults, so fault-free runs keep the one-comparison fast
	// path. Injectors are built (and their factories' errors surfaced)
	// here; scheduling happens in start.
	s.injectors = s.injectors[:0]
	if len(s.cfg.Faults) > 0 {
		for _, spec := range s.cfg.Faults {
			inj, err := buildFault(spec)
			if err != nil {
				return err
			}
			s.injectors = append(s.injectors, inj)
		}
		s.plane = &s.arenaPlane
		s.plane.Reset(len(pts))
		s.plane.OnNodeDown = s.crashNode
		s.plane.OnNodeUp = s.restoreNode
		ch.SetFaultPlane(s.plane)
	} else {
		s.plane = nil
	}
	// Static routes are a pure function of the placement: the adjacency,
	// computed once for all routers, and the routers built from it are
	// reusable exactly when the placement repeated (the common case in a
	// seed sweep over an explicit scenario) with no other routing in between.
	sameRoutes := samePlacement && s.adj != nil
	if scn.Routing != RoutingStatic {
		s.adj = nil
	} else if !sameRoutes {
		s.adj = geo.Neighbors(pts, phy.TxRange)
	}
	s.routers = resetSlice(s.routers, len(pts))
	s.arenaRouters = growSlice(s.arenaRouters, len(pts))
	s.statics = growSlice(s.statics, len(pts))
	for i := range pts {
		id := pkt.NodeID(i)
		st := s.stacks[i]
		switch scn.Routing {
		case RoutingAODV:
			r := s.arenaRouters[i]
			if r != nil {
				r.Reset(aodv.Config{})
			} else {
				r = aodv.New(s.sched, id, st.mac, &s.uids, aodv.Config{}, s.deliverFn)
				s.arenaRouters[i] = r
			}
			// Omniscient link oracle: lets the measurement layer tell
			// genuine route breaks (hop moved away) from the paper's false
			// route failures (contention on a healthy link).
			r.LinkAlive = func(nh pkt.NodeID) bool { return ch.Reachable(id, nh) }
			if s.obs != nil && s.obs.RouteFailure != nil {
				onFailure := s.obs.RouteFailure
				r.OnRouteFailure = func(falseFailure bool) { onFailure(id, falseFailure) }
			}
			s.routers[i] = r
			st.router = r
		case RoutingStatic:
			sr := s.statics[i]
			if sr != nil && sameRoutes {
				sr.Reset()
			} else {
				sr = aodv.NewStatic(id, st.mac, s.adj, s.deliverFn)
				s.statics[i] = sr
			}
			st.router = sr
		default:
			return errUnknownRouting(scn.Routing)
		}
	}

	s.slots = growSlice(s.slots, len(flows))
	for fi, f := range flows {
		s.slots[fi].state, s.slots[fi].lastRtx = flowNotStarted, 0
		tspec := s.cfg.Transport
		if !f.Transport.IsZero() {
			tspec = f.Transport
		}
		if err := s.buildFlow(fi, f, tspec); err != nil {
			return err
		}
	}
	return nil
}

// buildFlow sets up one flow's transport endpoints, resolving the spec
// through the transport registry: window-based variants share the engine
// and sink wiring, raw transports (paced UDP) build their own endpoints.
func (s *scenarioState) buildFlow(fi int, f Flow, tspec TransportSpec) error {
	if err := tspec.validate(flowContext(fi), false); err != nil {
		return err
	}
	tr, err := resolveTransport(tspec)
	if err != nil {
		return err
	}
	if tr.build != nil {
		return tr.build(s, fi, f, tspec)
	}
	src, dst := s.stacks[f.Src], s.stacks[f.Dst]
	tcfg := ccConfig(tspec)
	if s.obs != nil && s.obs.Retransmit != nil {
		onRetransmit := s.obs.Retransmit
		tcfg.OnRetransmit = func() { onRetransmit(fi) }
	}
	cc, err := tr.newCC(tspec)
	if err != nil {
		return fmt.Errorf("core: %s (%s): %w", tr.name, flowContext(fi), err)
	}
	sl := &s.slots[fi]
	sl.udp = false
	if sl.eng != nil {
		sl.eng.Reset(tcfg, fi, f.Src, f.Dst, src.output, cc)
	} else {
		sl.eng = tcp.NewEngine(s.sched, tcfg, fi, f.Src, f.Dst, &s.uids, src.output, cc)
	}
	policy := tcp.AckEveryPacket
	if tspec.AckThinning {
		policy = tcp.AckThinning
	} else if tspec.DelayedAck {
		policy = tcp.AckDelayed
	}
	if sl.sink != nil {
		sl.sink.Reset(fi, f.Dst, f.Src, policy, dst.output)
	} else {
		sl.sink = tcp.NewSink(s.sched, fi, f.Dst, f.Src, policy, &s.uids, dst.output)
	}
	sl.sink.Delay = s.delay
	return nil
}

// start launches every flow at its start offset plus a small decorrelating
// jitter, schedules the fault plan, and opens the first batch. The fault
// events are scheduled after the flow-start jitter draws and themselves
// draw nothing, so a faulted run's random stream matches its fault-free
// twin everywhere outside the fault reactions.
func (s *scenarioState) start() {
	s.cur = s.newBatch(0)
	s.nextBatchAt = s.cfg.BatchPackets
	for fi := range s.flows {
		fi := fi
		jitter := sim.Time(s.sched.Rand().Int63n(int64(10 * time.Millisecond)))
		// Scheduled once per flow at run start, not per packet; the closure
		// captures the flow index alongside the state, so the closure-free
		// form would allocate an argument struct instead.
		//manetsim:allow hotpathalloc
		s.sched.At(s.flows[fi].Start+jitter, func() {
			if s.plane != nil && s.plane.NodeDown(s.flows[fi].Src) {
				// Start time arrived mid-crash: the application launches
				// when its host restarts (see restoreNode).
				s.slots[fi].state = flowDue
				return
			}
			s.slots[fi].start()
		})
	}
	if s.plane != nil {
		s.scheduleFaults()
	}
}

// scheduleFaults places the run's fault schedule on the event queue and
// sets up the recovery bookkeeping behind Result.Faults: one outage
// report per spec plus time-ordered recovery marks resolved by the first
// delivery at or after each injection/heal instant.
func (s *scenarioState) scheduleFaults() {
	env := fault.Env{Sched: s.sched, Plane: s.plane, Positions: s.positions}
	for _, inj := range s.injectors {
		inj.Schedule(env)
	}
	s.outages = s.outages[:0]
	s.marks = s.marks[:0]
	s.nextMark = 0
	s.deliveredDuring = 0
	for i, spec := range s.cfg.Faults {
		o := OutageReport{Fault: spec.Label(), Start: spec.At}
		if spec.Duration > 0 {
			o.End = spec.At + spec.Duration
		}
		s.outages = append(s.outages, o)
		s.marks = append(s.marks, recoveryMark{t: spec.At, outage: i})
		if o.End > 0 {
			s.marks = append(s.marks, recoveryMark{t: o.End, outage: i, afterHeal: true})
		}
	}
	sort.Slice(s.marks, func(a, b int) bool { return s.marks[a].t < s.marks[b].t })
}

// crashNode is the fault plane's node-down hook: the whole local stack
// goes dark. The MAC and router deactivate preserving their cumulative
// counters (batch deltas stay consistent across the outage), running
// transport endpoints halt, and sinks stop generating ACKs. In-flight
// frames finish on the air — the radio layer suppresses their decode and
// completion callbacks.
func (s *scenarioState) crashNode(id pkt.NodeID) {
	s.stacks[id].mac.Deactivate()
	if r := s.routers[id]; r != nil {
		r.Deactivate()
	}
	for fi := range s.flows {
		s.slots[fi].halt(&s.flows[fi], id)
	}
}

// restoreNode is the fault plane's node-up hook: the stack reboots cold.
// The router restarts with an empty table (its sequence number survives,
// keeping AODV freshness comparisons sound), halted flows resume from
// their first unacknowledged packet with freshly initialized congestion
// state, and flows whose start time passed during the outage launch now.
func (s *scenarioState) restoreNode(id pkt.NodeID) {
	s.stacks[id].mac.Activate()
	if r := s.routers[id]; r != nil {
		r.Activate()
	}
	for fi := range s.flows {
		if s.flows[fi].Src == id {
			s.slots[fi].resume()
		}
	}
}

// maxPlannedBatches caps how many batches a run sizes its storage for up
// front; a run that closes more grows it as it goes.
const maxPlannedBatches = 1024

// plannedBatches is how many batches a run sizes its storage for: every
// batch its packet budget can close, plus the one left open when it stops.
// A zero BatchPackets closes a batch on every delivery, like a budget of 1.
func (s *scenarioState) plannedBatches() int {
	b := max(s.cfg.BatchPackets, 1)
	return int(min((s.cfg.TotalPackets+b-1)/b+1, maxPlannedBatches))
}

// newBatch opens a batch whose per-flow slices are carved from the run's
// backing arrays, which the run's first call sizes for plannedBatches.
func (s *scenarioState) newBatch(start time.Duration) Batch {
	nf := len(s.flows)
	chunk := s.plannedBatches() * nf
	return Batch{
		Start:          start,
		PerFlowPackets: carve(&s.batchPackets, nf, chunk),
		PerFlowRtx:     carve(&s.batchRtx, nf, chunk),
		PerFlowWindow:  carve(&s.batchWindow, nf, chunk),
	}
}

// carve cuts the next n elements off *buf, capacity clipped so an append
// cannot reach a neighbour; an exhausted buf is refilled with a fresh array
// of max(n, chunk).
func carve[T any](buf *[]T, n, chunk int) []T {
	if len(*buf) < n {
		*buf = make([]T, max(n, chunk))
	}
	out := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return out
}

// onDelivery advances goodput accounting and closes batches at the paper's
// packet-count boundaries.
func (s *scenarioState) onDelivery(flow int, n int64) {
	if s.plane != nil {
		s.noteFaultDelivery(n)
	}
	s.delivered += n
	s.cur.PerFlowPackets[flow] += n

	if s.delivered >= s.nextBatchAt || s.delivered >= s.cfg.TotalPackets {
		s.closeBatch()
		s.nextBatchAt += s.cfg.BatchPackets
		if s.delivered >= s.cfg.TotalPackets {
			s.sched.Stop()
		}
	}
}

// noteFaultDelivery advances the resilience accounting on each goodput
// delivery of a faulted run: the during-outage delivery split (keyed by
// the plane's live active count) and the pending recovery marks (sorted
// by time, so one comparison suffices when none is due).
func (s *scenarioState) noteFaultDelivery(n int64) {
	if !s.plane.Quiet() {
		s.deliveredDuring += n
	}
	if s.nextMark >= len(s.marks) {
		return
	}
	now := s.sched.Now()
	for s.nextMark < len(s.marks) && s.marks[s.nextMark].t <= now {
		m := s.marks[s.nextMark]
		o := &s.outages[m.outage]
		if m.afterHeal {
			o.RecoveredAfterHeal = true
			o.TimeToRecoverAfterHeal = now - o.End
		} else {
			o.Recovered = true
			o.TimeToRecover = now - o.Start
		}
		s.nextMark++
	}
}

// faultReport assembles Result.Faults at end of run: the per-outage
// recovery reports, the merged time-in-outage, and the goodput split
// between outage and healthy time.
func (s *scenarioState) faultReport(res *Result) *FaultReport {
	rep := &FaultReport{
		Injected: len(s.cfg.Faults),
		Outages:  append([]OutageReport(nil), s.outages...),
	}
	// Merge the outage windows (permanent faults extend to end of run,
	// everything clamps to the simulated span) into total outage time.
	type span struct{ a, b time.Duration }
	spans := make([]span, 0, len(s.outages))
	for _, o := range s.outages {
		a, b := o.Start, o.End
		if b == 0 {
			b = res.SimTime
		}
		if a >= res.SimTime {
			continue
		}
		if b > res.SimTime {
			b = res.SimTime
		}
		if b > a {
			spans = append(spans, span{a, b})
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].a < spans[j].a })
	var inOutage, end time.Duration
	for _, sp := range spans {
		if sp.a > end {
			inOutage += sp.b - sp.a
			end = sp.b
		} else if sp.b > end {
			inOutage += sp.b - end
			end = sp.b
		}
	}
	rep.TimeInOutage = inOutage
	rep.DeliveredDuring = s.deliveredDuring
	rep.DeliveredOutside = res.Delivered - s.deliveredDuring
	if secs := inOutage.Seconds(); secs > 0 {
		rep.GoodputDuringBps = float64(rep.DeliveredDuring) * pkt.TCPPayloadSize * 8 / secs
	}
	if secs := (res.SimTime - inOutage).Seconds(); secs > 0 {
		rep.GoodputOutsideBps = float64(rep.DeliveredOutside) * pkt.TCPPayloadSize * 8 / secs
	}
	for _, st := range s.stacks {
		rep.FramesCut += st.radio.FramesFaulted
	}
	for _, r := range s.routers {
		if r != nil {
			rep.RouteFailures += r.Counters.FalseRouteFailures + r.Counters.TrueRouteFailures
		}
	}
	return rep
}

// closeBatch snapshots cumulative counters into the finished batch and
// opens the next one.
func (s *scenarioState) closeBatch() {
	now := s.sched.Now()
	b := s.cur
	b.End = now

	for fi := range s.flows {
		sl := &s.slots[fi]
		if sl.udp {
			continue
		}
		cum := sl.eng.Stats().Retransmits
		b.PerFlowRtx[fi] = cum - sl.lastRtx
		sl.lastRtx = cum
		b.PerFlowWindow[fi] = sl.eng.WindowTrace().AverageAt(now)
		sl.eng.WindowTrace().Reset(now)
	}
	var failures, attempts uint64
	for _, st := range s.stacks {
		c := st.mac.Counters
		failures += c.Retries + c.RetryDrops
		attempts += c.RTSSent + c.DataSent
	}
	b.MACDrops = failures - s.lastDrops
	b.MACSubmitted = attempts - s.lastSubmit
	s.lastDrops, s.lastSubmit = failures, attempts

	var frf, trf uint64
	for _, r := range s.routers {
		if r != nil {
			frf += r.Counters.FalseRouteFailures
			trf += r.Counters.TrueRouteFailures
		}
	}
	b.FalseRouteFailures = frf - s.lastFailures
	b.TrueRouteFailures = trf - s.lastTrueFailures
	s.lastFailures, s.lastTrueFailures = frf, trf

	if s.batches == nil {
		s.batches = make([]Batch, 0, s.plannedBatches()-1)
	}
	s.batches = append(s.batches, b)
	s.cur = s.newBatch(now)

	if o := s.obs; o != nil {
		if o.WindowSample != nil {
			for fi := range s.flows {
				o.WindowSample(fi, b.PerFlowWindow[fi])
			}
		}
		if o.Batch != nil {
			o.Batch(b)
		}
		if o.Progress != nil {
			o.Progress(s.delivered, s.cfg.TotalPackets, now)
		}
	}
}

// fillEnergy computes the end-of-run energy report.
func (s *scenarioState) fillEnergy(res *Result) {
	var total float64
	for _, st := range s.stacks {
		total += st.energyJoules(res.SimTime)
	}
	mb := float64(res.Delivered) * pkt.TCPPayloadSize / 1e6
	rep := EnergyReport{TotalJoules: total, DeliveredPackets: res.Delivered}
	if mb > 0 {
		rep.JoulesPerMB = total / mb
	}
	res.Energy = rep
}
