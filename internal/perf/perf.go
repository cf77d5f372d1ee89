// Package perf is the simulator's performance benchmark suite: kernel
// microbenchmarks (event schedule/dispatch/cancel, timer churn), MAC
// contention, channel neighbor queries, and an end-to-end run at the
// BenchScale measurement budget.
//
// The benchmark bodies are ordinary exported functions taking *testing.B so
// that both `go test -bench` (via the wrappers in bench_test.go) and
// `manetsim bench -json` (via testing.Benchmark) execute the identical
// code. The JSON snapshot/compare machinery lives in snapshot.go.
package perf

import (
	"context"
	"testing"
	"time"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/exp"
	"manetsim/internal/fault"
	"manetsim/internal/geo"
	"manetsim/internal/linkmodel"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// Case is one named benchmark of the suite. Name matches the go-test
// benchmark name so `-parse`d output and `-json` snapshots line up.
type Case struct {
	Name string
	Fn   func(*testing.B)
}

// Suite returns the full benchmark suite in a fixed order.
func Suite() []Case {
	return []Case{
		{"BenchmarkScheduleDispatch", BenchScheduleDispatch},
		{"BenchmarkScheduleDispatchDeep", BenchScheduleDispatchDeep},
		{"BenchmarkScheduleCancel", BenchScheduleCancel},
		{"BenchmarkTimerReset", BenchTimerReset},
		{"BenchmarkMACContention", BenchMACContention},
		{"BenchmarkChannelNeighborQuery", BenchChannelNeighborQuery},
		{"BenchmarkChannelNeighborQuerySparse", BenchChannelNeighborQuerySparse},
		{"BenchmarkChannelDeliverImpaired", BenchChannelDeliverImpaired},
		{"BenchmarkRadioTransmit", BenchRadioTransmit},
		{"BenchmarkEndToEndBenchScale", BenchEndToEndBenchScale},
		{"BenchmarkRunWithFaults", BenchRunWithFaults},
		{"BenchmarkCampaignReplicates", BenchCampaignReplicates},
		{"BenchmarkCampaignReplicatesRebuild", BenchCampaignReplicatesRebuild},
		{"BenchmarkFigureTCPVariants", BenchFigureTCPVariants},
	}
}

// BenchScheduleDispatch measures one schedule-then-dispatch cycle through
// the kernel's pooled 4-ary heap — the single most executed operation in
// the simulator.
func BenchScheduleDispatch(b *testing.B) {
	s := sim.NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
}

// BenchScheduleDispatchDeep is the same cycle against a 4096-event backlog,
// exercising sift depth at realistic queue sizes.
func BenchScheduleDispatchDeep(b *testing.B) {
	s := sim.NewScheduler(1)
	fn := func() {}
	for i := 0; i < 4096; i++ {
		s.At(time.Duration(1<<40)+time.Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		s.Step()
	}
}

// BenchScheduleCancel measures schedule-then-cancel (timer rearm pattern).
func BenchScheduleCancel(b *testing.B) {
	s := sim.NewScheduler(1)
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := s.After(time.Millisecond, fn)
		s.Cancel(ev)
	}
}

// BenchTimerReset measures the Timer rearm path protocol stacks hammer
// (retransmission timers restart on every ACK).
func BenchTimerReset(b *testing.B) {
	s := sim.NewScheduler(1)
	tm := sim.NewTimer(s, func() {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm.Reset(time.Millisecond)
	}
}

// BenchMACContention runs complete RTS/CTS/DATA/ACK exchanges from two
// contending senders to a shared receiver — the paper's hidden-terminal
// core in miniature — including carrier sensing, backoff, and duplicate
// suppression.
func BenchMACContention(b *testing.B) {
	sched := sim.NewScheduler(1)
	// 0 and 2 both reach 1 (200 m < TxRange) and carrier-sense each other
	// (400 m < CSRange), so every exchange contends.
	ch := phy.NewChannel(sched, []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}})
	var pool pkt.Pool
	delivered := 0
	cb := mac.Callbacks{
		Deliver:     func(p *pkt.Packet, _ pkt.NodeID) { delivered++; p.Release() },
		LinkFailure: func(p *pkt.Packet, _ pkt.NodeID) { p.Release() },
	}
	macs := make([]*mac.DCF, 3)
	for i := range macs {
		macs[i] = mac.New(sched, ch.Radio(pkt.NodeID(i)), mac.Config{DataRate: phy.Rate2Mbps}, cb)
	}
	newData := func(src, dst pkt.NodeID) *pkt.Packet {
		p := pool.NewTCP()
		p.Kind = pkt.KindTCPData
		p.Size = pkt.TCPDataSize
		p.Src, p.Dst = src, dst
		p.TTL = 64
		return p
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		macs[0].Enqueue(newData(0, 1), 1)
		macs[2].Enqueue(newData(2, 1), 1)
		sched.Run()
	}
	b.StopTimer()
	if delivered == 0 {
		b.Fatal("no packets delivered")
	}
}

// jiggleModel drifts a 10-wide node grid sideways over time so every
// position epoch moves every node and invalidates the neighbor caches.
type jiggleModel struct {
	n       int
	spacing float64
}

func (j jiggleModel) Len() int     { return j.n }
func (j jiggleModel) Static() bool { return false }
func (j jiggleModel) PositionAt(i int, t sim.Time) geo.Point {
	drift := 3 * float64(t/phy.DefaultUpdateInterval)
	return geo.Point{
		X: float64(i%10)*j.spacing + drift,
		Y: float64(i/10) * j.spacing,
	}
}

// BenchChannelNeighborQuery measures one position epoch of a 100-node
// mobile channel: re-sampling every position, re-bucketing the spatial
// grid, and rebuilding all 100 per-radio neighbor sets.
func BenchChannelNeighborQuery(b *testing.B) {
	sched := sim.NewScheduler(1)
	const n = 100
	ch := phy.NewMobileChannel(sched, jiggleModel{n: n, spacing: 150}, 0)
	sum := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunUntil(time.Duration(i+1) * phy.DefaultUpdateInterval)
		for id := 0; id < n; id++ {
			sum += ch.NeighborCount(pkt.NodeID(id))
		}
	}
	b.StopTimer()
	if sum == 0 {
		b.Fatal("empty neighbor sets")
	}
}

// sparseModel keeps a node grid still except for two nodes that drift
// sideways — the common mobile-scenario regime where most nodes are paused
// between waypoints. With incremental neighbor epochs only the movers and
// their vicinities rebuild; everything else stays on the cached fast path.
type sparseModel struct {
	n       int
	spacing float64
}

func (m sparseModel) Len() int     { return m.n }
func (m sparseModel) Static() bool { return false }
func (m sparseModel) PositionAt(i int, t sim.Time) geo.Point {
	p := geo.Point{
		X: float64(i%10) * m.spacing,
		Y: float64(i/10) * m.spacing,
	}
	if i == 0 || i == m.n/2 {
		p.X += 3 * float64(t/phy.DefaultUpdateInterval)
	}
	return p
}

// BenchChannelNeighborQuerySparse is BenchChannelNeighborQuery with sparse
// movement: the same 100-node channel and full query sweep, but only two
// nodes move per position epoch. The gap between this and the dense bench
// is the payoff of incremental (O(moved)) neighbor-epoch maintenance.
func BenchChannelNeighborQuerySparse(b *testing.B) {
	sched := sim.NewScheduler(1)
	const n = 100
	ch := phy.NewMobileChannel(sched, sparseModel{n: n, spacing: 500}, 0)
	sum := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sched.RunUntil(time.Duration(i+1) * phy.DefaultUpdateInterval)
		for id := 0; id < n; id++ {
			sum += ch.NeighborCount(pkt.NodeID(id))
		}
	}
	b.StopTimer()
	if sum == 0 {
		b.Fatal("empty neighbor sets")
	}
}

// sinkHandler is the minimal PHY handler for channel-only benches: it
// counts deliveries and corruptions and ignores carrier state.
type sinkHandler struct{ rx, corrupted int }

func (h *sinkHandler) RxFrame(any, pkt.NodeID) { h.rx++ }
func (h *sinkHandler) RxCorrupted()            { h.corrupted++ }
func (h *sinkHandler) ChannelBusy()            {}
func (h *sinkHandler) ChannelIdle()            {}
func (h *sinkHandler) TxDone()                 {}

// newImpairedPair builds the 3-node line every impaired-delivery
// measurement uses — sender, decodable receiver at 200 m, gray-zone
// listener at 400 m (energy only under the perfect channel) — with
// bursty Gilbert-Elliott loss and delay jitter installed, and returns
// the scheduler, sender radio and receiving sink. One warm-up transmit
// has already run, so per-link states and the pooled transmission record
// are allocated.
func newImpairedPair() (*sim.Scheduler, *phy.Radio, *sinkHandler) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}})
	ch.SetLinkModel(linkmodel.GilbertElliott{
		PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.5,
	}, 10*time.Microsecond, 0, 1)
	sink := &sinkHandler{}
	tx := ch.Radio(0)
	tx.SetHandler(&sinkHandler{})
	ch.Radio(1).SetHandler(sink)
	ch.Radio(2).SetHandler(&sinkHandler{})
	tx.Transmit("warmup", 100*time.Microsecond)
	sched.Run()
	return sched, tx, sink
}

// BenchChannelDeliverImpaired measures one steady-state frame delivery
// through the impaired channel — per-link RNG draws for Gilbert-Elliott
// loss and jitter on every copy, capture arbitration at the receivers —
// after the warm-up transmit has populated the per-link states. The
// impairment path must stay allocation-free: 0 allocs/op is enforced by
// TestChannelDeliverImpairedZeroAlloc against this same setup.
func BenchChannelDeliverImpaired(b *testing.B) {
	sched, tx, sink := newImpairedPair()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Transmit("frame", 100*time.Microsecond)
		sched.Run()
	}
	b.StopTimer()
	if sink.rx+sink.corrupted == 0 {
		b.Fatal("nothing arrived at the receiver")
	}
}

// BenchRadioTransmit measures one frame through the perfect channel from
// the end of a 5-node line whose other four radios all sit within
// carrier-sense range, two of them within decode range: one Transmit and
// the nine callbacks it costs (four signal starts, four ends, TxDone). The
// transmission walks them from a single scheduler entry, so pushes/frame —
// queue entries one Transmit adds to an empty queue — reads 1, and with
// nothing else queued it runs ahead through all nine in one dispatch, so
// steps/frame — scheduler round trips — reads 1 too.
func BenchRadioTransmit(b *testing.B) {
	sched := sim.NewScheduler(1)
	pts := make([]geo.Point, 5)
	for i := range pts {
		pts[i].X = float64(i) * 100
	}
	ch := phy.NewChannel(sched, pts)
	sink := &sinkHandler{}
	for i := range pts {
		ch.Radio(pkt.NodeID(i)).SetHandler(sink)
	}
	tx := ch.Radio(0)
	pushes, steps := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tx.Transmit("frame", 100*time.Microsecond)
		pushes += sched.Pending()
		for sched.Step() {
			steps++
		}
	}
	b.StopTimer()
	if sink.rx == 0 {
		b.Fatal("the neighbors decoded nothing")
	}
	b.ReportMetric(float64(pushes)/float64(b.N), "pushes/frame")
	b.ReportMetric(float64(steps)/float64(b.N), "steps/frame")
	b.ReportMetric(float64(sched.Dispatched())/float64(b.N), "events/frame")
}

// newFaultedPair is newImpairedPair with the fault plane installed and
// active: the gray-zone link 0<->2 is blacked out, so every transmit
// walks the severance checks on each copy with the plane in its
// non-quiet state while the decodable receiver keeps delivering.
func newFaultedPair() (*sim.Scheduler, *phy.Radio, *sinkHandler, *fault.Plane) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}})
	ch.SetLinkModel(linkmodel.GilbertElliott{
		PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.5,
	}, 10*time.Microsecond, 0, 1)
	plane := &fault.Plane{}
	plane.Reset(3)
	plane.BlockLink(0, 2)
	plane.BlockLink(2, 0)
	ch.SetFaultPlane(plane)
	sink := &sinkHandler{}
	tx := ch.Radio(0)
	tx.SetHandler(&sinkHandler{})
	ch.Radio(1).SetHandler(sink)
	ch.Radio(2).SetHandler(&sinkHandler{})
	tx.Transmit("warmup", 100*time.Microsecond)
	sched.Run()
	return sched, tx, sink, plane
}

// BenchRunWithFaults is the end-to-end resilience figure: a complete
// 4-hop NewReno chain run at the BenchScale budget with a mid-chain
// crash-and-restart injected — fault event dispatch, severance checks on
// the forwarding path, recovery-mark accounting and the outage report
// all included. Its gap to BenchmarkEndToEndBenchScale bounds the cost
// of carrying a fault schedule.
func BenchRunWithFaults(b *testing.B) {
	scale := manetsim.BenchScale
	cfg := core.Config{
		Scenario:     core.Chain(4),
		Bandwidth:    phy.Rate2Mbps,
		Transport:    core.TransportSpec{Protocol: core.ProtoNewReno},
		Seed:         scale.Seed,
		TotalPackets: scale.TotalPackets,
		BatchPackets: scale.BatchPackets,
		Faults: []core.FaultSpec{
			core.CrashFault(2, 2*time.Second, 2*time.Second),
		},
	}
	var res *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res != nil {
		if res.Faults == nil || !res.Faults.Outages[0].RecoveredAfterHeal {
			b.Fatal("faulted benchmark run never recovered")
		}
		b.ReportMetric(float64(res.Delivered)*float64(b.N)/b.Elapsed().Seconds(), "packets/s")
	}
}

// benchCampaignReplicates measures campaign replicate throughput on a
// world whose construction is expensive relative to its measurement
// budget: a 210-node static-routed grid (route computation is cubic in
// node count) sampled for a small packet budget across many seeds. One
// campaign persists across iterations — seeds never repeat, so every run
// simulates — and the rebuild variant passes WithoutArenaReuse, making the
// pair a direct fresh-build-vs-arena comparison.
func benchCampaignReplicates(b *testing.B, opts ...manetsim.CampaignOption) {
	const (
		cols, rows = 15, 14
		seeds      = 32
	)
	scn := core.NewScenario("arena-grid").WithRouting(core.RoutingStatic)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			scn.AddNode(float64(c)*200, float64(r)*200)
		}
	}
	scn.AddFlow(0, 2)
	camp := manetsim.NewCampaign(manetsim.BenchScale, opts...)
	next := int64(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfgs := make([]core.Config, seeds)
		for j := range cfgs {
			cfgs[j] = core.Config{
				Scenario:     scn,
				Bandwidth:    phy.Rate2Mbps,
				Transport:    core.TransportSpec{Name: "vegas"},
				Seed:         next,
				TotalPackets: 44,
				BatchPackets: 4,
			}
			next++
		}
		if _, err := camp.RunAll(context.Background(), cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(seeds)*float64(b.N)/b.Elapsed().Seconds(), "replicates/s")
}

// BenchCampaignReplicates measures replicate throughput with the default
// per-worker arena pool: world setup amortizes across the sweep.
func BenchCampaignReplicates(b *testing.B) { benchCampaignReplicates(b) }

// BenchCampaignReplicatesRebuild is the same sweep with arena reuse
// disabled — every replicate rebuilds its world from scratch. The ratio to
// BenchCampaignReplicates is the arena speedup.
func BenchCampaignReplicatesRebuild(b *testing.B) {
	benchCampaignReplicates(b, manetsim.WithoutArenaReuse())
}

// BenchEndToEndBenchScale is the headline end-to-end figure: one complete
// 8-hop Vegas chain run at the BenchScale measurement budget (the same
// 11-batch structure the figures use). ns/op is the cost of regenerating
// one run; packets/s is raw simulator throughput.
func BenchEndToEndBenchScale(b *testing.B) {
	scale := manetsim.BenchScale
	var res *core.Result
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		res, err = core.Run(core.Config{
			Scenario:     core.Chain(8),
			Bandwidth:    phy.Rate2Mbps,
			Transport:    core.TransportSpec{Protocol: core.ProtoVegas},
			Seed:         scale.Seed,
			TotalPackets: scale.TotalPackets,
			BatchPackets: scale.BatchPackets,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res != nil {
		b.ReportMetric(float64(res.Delivered)*float64(b.N)/b.Elapsed().Seconds(), "packets/s")
		b.ReportMetric(res.AggGoodput.Mean/1e3, "kbit/s")
	}
}

// BenchFigureTCPVariants regenerates one whole figure per iteration — the
// golden-pinned Tahoe/Reno/NewReno/Vegas chain comparison, 12 runs at
// BenchScale on a fresh campaign — so the ledger holds the cost of the
// experiment shape users actually run (build the sweep, fan it out,
// render the series), not only of its parts.
func BenchFigureTCPVariants(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := exp.TCPVariants(manetsim.NewCampaign(manetsim.BenchScale)); err != nil {
			b.Fatal(err)
		}
	}
}
