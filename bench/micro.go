package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"testing"
	"time"

	"manetsim"
	"manetsim/internal/aodv"
	"manetsim/internal/geo"
	"manetsim/internal/linkmodel"
	"manetsim/internal/mac"
	"manetsim/internal/mobility"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/store"
	"manetsim/internal/tcp"
	"manetsim/internal/udp"
)

// The microdrivers time calls into one layer's exported functions from
// outside, the way the workloads cannot: with the other layers absent or
// stubbed. They are the traced pass's second source of per-layer numbers and
// do not depend on the workload or the seed.

// micro collects the microdrivers' values.
type micro struct {
	budget  time.Duration // measuring time per timed call
	scratch string
	values  map[string]float64
	errs    []string
}

func (m *micro) set(name string, v float64) { m.values[name] = v }

func (m *micro) failf(format string, args ...any) {
	m.errs = append(m.errs, fmt.Sprintf(format, args...))
}

// perCall calls fn in growing batches until the budget has passed and
// returns the mean nanoseconds per call and the number of calls made.
func (m *micro) perCall(fn func()) (ns float64, calls int) {
	fn()
	var spent time.Duration
	for n := 1; spent < m.budget; {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		d := time.Since(t0)
		spent += d
		calls += n
		if d < m.budget/20 {
			n *= 2
		}
	}
	return float64(spent) / float64(calls), calls
}

var microdrivers = []func(*micro){
	microSim, microTransmit, microNeighborEpochs, microDeliverImpaired,
	microMAC, microAODV, microTCP, microUDP, microPkt, microMobility,
	microCore, microStore, microCampaign,
}

func runMicrodrivers(budget time.Duration, scratch string) *micro {
	m := &micro{budget: budget, scratch: scratch, values: make(map[string]float64)}
	for _, d := range microdrivers {
		d(m)
	}
	return m
}

func microSim(m *micro) {
	noop := func() {}
	s := sim.NewScheduler(1)
	ns, _ := m.perCall(func() { s.After(time.Microsecond, noop); s.Step() })
	m.set("sim.schedule_dispatch_ns", ns)

	// The same cycle on top of a 4096-event backlog: sift depth at the queue
	// sizes a 50-node world reaches.
	s = sim.NewScheduler(1)
	for i := 0; i < 4096; i++ {
		s.At(time.Duration(1<<40)+time.Duration(i), noop)
	}
	ns, _ = m.perCall(func() { s.After(time.Microsecond, noop); s.Step() })
	m.set("sim.schedule_dispatch_deep_ns", ns)

	// Retransmission timers restart on every ACK.
	tm := sim.NewTimer(sim.NewScheduler(1), noop)
	ns, _ = m.perCall(func() { tm.Reset(time.Millisecond) })
	m.set("sim.timer_reset_ns", ns)
}

// sink is the minimal PHY handler: it counts what arrives.
type sink struct{ rx, corrupted int }

func (h *sink) RxFrame(any, pkt.NodeID) { h.rx++ }
func (h *sink) RxCorrupted()            { h.corrupted++ }
func (h *sink) ChannelBusy()            {}
func (h *sink) ChannelIdle()            {}
func (h *sink) TxDone()                 {}

// microTransmit sends frames from the end of a 5-node line whose other four
// radios all sit within carrier-sense range (550 m), two of them within
// decode range: the events one Radio.Transmit costs the kernel.
func microTransmit(m *micro) {
	sched := sim.NewScheduler(1)
	pts := make([]geo.Point, 5)
	for i := range pts {
		pts[i].X = float64(i) * 100
	}
	ch := phy.NewChannel(sched, pts)
	sinks := make([]*sink, 5)
	for i := range sinks {
		sinks[i] = &sink{}
		ch.Radio(pkt.NodeID(i)).SetHandler(sinks[i])
	}
	tx := ch.Radio(0)
	frame := any("frame")
	d0 := sched.Dispatched()
	ns, calls := m.perCall(func() { tx.Transmit(frame, 100*time.Microsecond); sched.Run() })
	m.set("phy.transmit_ns", ns)
	m.set("phy.events_per_frame", float64(sched.Dispatched()-d0)/float64(calls+1))
	if sinks[1].rx == 0 {
		m.failf("phy.transmit: the neighbour decoded nothing")
	}
}

// drift is a 10-wide grid of n nodes of which the nodes in movers (nil: all
// of them) slide sideways, so every position epoch invalidates neighbor sets.
type drift struct {
	n       int
	spacing float64
	movers  map[int]bool
}

func (d drift) Len() int     { return d.n }
func (d drift) Static() bool { return false }
func (d drift) PositionAt(i int, t sim.Time) geo.Point {
	p := geo.Point{X: float64(i%10) * d.spacing, Y: float64(i/10) * d.spacing}
	if d.movers == nil || d.movers[i] {
		p.X += 3 * float64(t/phy.DefaultUpdateInterval)
	}
	return p
}

// microNeighborEpochs times one position epoch of a 100-node mobile channel
// followed by a neighbor query of every radio: dense (everyone moves, sets
// are large) and sparse (two movers on a thinly populated field).
func microNeighborEpochs(m *micro) {
	for _, c := range []struct {
		name  string
		model drift
	}{
		{"phy.neighbor_epoch_dense_us", drift{n: 100, spacing: 150}},
		{"phy.neighbor_epoch_sparse_us", drift{n: 100, spacing: 500, movers: map[int]bool{0: true, 50: true}}},
	} {
		sched := sim.NewScheduler(1)
		ch := phy.NewMobileChannel(sched, c.model, 0)
		epoch, sum := 0, 0
		ns, _ := m.perCall(func() {
			epoch++
			sched.RunUntil(time.Duration(epoch) * phy.DefaultUpdateInterval)
			for id := 0; id < c.model.n; id++ {
				sum += ch.NeighborCount(pkt.NodeID(id))
			}
		})
		m.set(c.name, ns/1e3)
		if sum == 0 {
			m.failf("%s: empty neighbor sets", c.name)
		}
	}
}

// microDeliverImpaired times a frame through the impaired channel: per-link
// draws for Gilbert-Elliott loss and jitter on every copy.
func microDeliverImpaired(m *micro) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(2))
	ch.SetLinkModel(linkmodel.GilbertElliott{PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.5}, 10*time.Microsecond, 0, 1)
	rx := &sink{}
	ch.Radio(0).SetHandler(&sink{})
	ch.Radio(1).SetHandler(rx)
	ch.Radio(2).SetHandler(&sink{})
	tx := ch.Radio(0)
	frame := any("frame")
	ns, _ := m.perCall(func() { tx.Transmit(frame, 100*time.Microsecond); sched.Run() })
	m.set("phy.deliver_impaired_ns", ns)
	if rx.rx == 0 || rx.corrupted == 0 {
		m.failf("phy.deliver_impaired: %d frames decoded, %d corrupted; want both", rx.rx, rx.corrupted)
	}
}

func tcpData(pool *pkt.Pool, src, dst pkt.NodeID) *pkt.Packet {
	p := pool.NewTCP()
	p.Kind = pkt.KindTCPData
	p.Size = pkt.TCPDataSize
	p.Src, p.Dst = src, dst
	p.TTL = 64
	return p
}

// microMAC times one uncontended RTS/CTS/DATA/ACK exchange between two
// nodes and counts the kernel events it takes.
func microMAC(m *micro) {
	sched := sim.NewScheduler(1)
	ch := phy.NewChannel(sched, geo.Chain(1))
	var pool pkt.Pool
	delivered := 0
	cb := mac.Callbacks{
		Deliver:     func(p *pkt.Packet, _ pkt.NodeID) { delivered++; p.Release() },
		LinkFailure: func(p *pkt.Packet, _ pkt.NodeID) { p.Release() },
	}
	macs := make([]*mac.DCF, 2)
	for i := range macs {
		macs[i] = mac.New(sched, ch.Radio(pkt.NodeID(i)), mac.Config{DataRate: phy.Rate2Mbps}, cb)
	}
	d0 := sched.Dispatched()
	ns, calls := m.perCall(func() { macs[0].Enqueue(tcpData(&pool, 0, 1), 1); sched.Run() })
	m.set("mac.exchange_us", ns/1e3)
	m.set("mac.events_per_exchange", float64(sched.Dispatched()-d0)/float64(calls+1))
	if delivered != calls+1 {
		m.failf("mac.exchange: %d of %d packets delivered", delivered, calls+1)
	}
}

// microAODV times a route discovery over a 4-hop line of real mac+aodv
// nodes (RREQ flood out, RREP back, the buffered packet delivered), and the
// routing-table update every received control packet performs.
func microAODV(m *micro) {
	const hops = 4
	sched := sim.NewScheduler(1)
	pts := geo.Chain(hops)
	ch := phy.NewChannel(sched, pts)
	var pool pkt.Pool
	macs := make([]*mac.DCF, len(pts))
	routers := make([]*aodv.Router, len(pts))
	delivered := 0
	for i := range pts {
		i := i
		id := pkt.NodeID(i)
		macs[i] = mac.New(sched, ch.Radio(id), mac.Config{DataRate: phy.Rate2Mbps}, mac.Callbacks{
			Deliver:     func(p *pkt.Packet, from pkt.NodeID) { routers[i].HandlePacket(p, from) },
			LinkFailure: func(p *pkt.Packet, nh pkt.NodeID) { routers[i].HandleLinkFailure(p, nh) },
		})
		routers[i] = aodv.New(sched, id, macs[i], &pool, aodv.Config{}, func(p *pkt.Packet) { delivered++; p.Release() })
	}
	noop := func() {}
	discover := func() {
		routers[0].Send(tcpData(&pool, 0, hops))
		sched.Run()
		// Let every route and duplicate-suppression entry expire, so the
		// next send starts from nothing.
		sched.After(time.Minute, noop)
		sched.Run()
	}
	ns, calls := m.perCall(discover)
	m.set("aodv.discovery_us", ns/1e3)
	m.set("aodv.discovery_allocs", testing.AllocsPerRun(20, discover))
	calls += 1 + 21 // perCall's and AllocsPerRun's warm-up calls
	if got := routers[0].Counters.RREQSent; delivered != calls || got < uint64(calls) {
		m.failf("aodv.discovery: %d calls delivered %d packets with %d RREQs", calls, delivered, got)
	}

	table := aodv.NewTable(sim.NewScheduler(1), 10*time.Second)
	seq := uint32(0)
	ns, _ = m.perCall(func() {
		seq++
		table.Update(pkt.NodeID(seq%64), 1, 3, seq) // a fresher route each time
	})
	m.set("aodv.table_update_ns", ns)
}

// microTCP feeds in-order ACKs to a NewReno engine whose output is a stub,
// so each call is ACK processing plus the transmissions it clocks out.
func microTCP(m *micro) {
	sched := sim.NewScheduler(1)
	var pool pkt.Pool
	e := tcp.NewEngine(sched, tcp.Config{}, 1, 0, 1, &pool, func(p *pkt.Packet) { p.Release() }, tcp.NewNewRenoCC())
	e.Start()
	ack := pool.NewTCP()
	defer ack.Release()
	ack.Kind = pkt.KindTCPAck
	ack.TCP.Flow = 1
	next := int64(1)
	feed := func() {
		ack.TCP.Ack = next
		ack.TCP.SentAt = sched.Now()
		next++
		e.HandleAck(ack)
	}
	for i := 0; i < 256; i++ { // saturate the window and the pool first
		feed()
	}
	ns, _ := m.perCall(feed)
	m.set("tcp.ack_ns", ns)
	m.set("tcp.ack_allocs", testing.AllocsPerRun(512, feed))
}

func microUDP(m *micro) {
	sched := sim.NewScheduler(1)
	var pool pkt.Pool
	s := udp.NewSender(sched, 1, 0, 1, time.Millisecond, &pool, func(p *pkt.Packet) { p.Release() })
	s.Start()
	ns, calls := m.perCall(func() { sched.Step() }) // each pacing tick sends one packet
	m.set("udp.send_ns", ns)
	if s.Sent != int64(calls+2) {
		m.failf("udp.send: %d packets sent, want one at start and one per tick: %d", s.Sent, calls+2)
	}
}

func microPkt(m *micro) {
	var pool pkt.Pool
	ns, _ := m.perCall(func() { pool.NewTCP().Release() })
	m.set("pkt.get_release_ns", ns)
}

// microMobility samples a 50-node random-waypoint model the way the channel
// does: every node, at non-decreasing epochs.
func microMobility(m *micro) {
	const n = 50
	initial := make([]geo.Point, n)
	rng := rand.New(rand.NewSource(1))
	for i := range initial {
		initial[i] = geo.Point{X: rng.Float64() * 1500, Y: rng.Float64() * 1000}
	}
	model, err := mobility.NewRandomWaypoint(mobility.WaypointConfig{
		Field:    geo.Rect{Max: geo.Point{X: 1500, Y: 1000}},
		MinSpeed: 1, MaxSpeed: 20, Pause: 2 * time.Second,
	}, initial, rng)
	if err != nil {
		m.failf("mobility.position: %v", err)
		return
	}
	i, t := 0, sim.Time(0)
	var sum float64
	ns, _ := m.perCall(func() {
		sum += model.PositionAt(i, t).X
		if i++; i == n {
			i, t = 0, t+phy.DefaultUpdateInterval
		}
	})
	m.set("mobility.position_ns", ns)
	if sum == 0 {
		m.failf("mobility.position: every node sat at x=0")
	}
}

// gridConfig is a 44-packet run on the 210-node static-routed grid: a world
// that costs far more to build than to run.
func gridConfig(seed int64) manetsim.Config {
	return manetsim.Config{
		Scenario:     gridScenario(),
		Bandwidth:    manetsim.Rate2Mbps,
		Transport:    manetsim.TransportSpec{Name: "vegas"},
		Seed:         seed,
		TotalPackets: 44,
		BatchPackets: 4,
	}
}

// microCore runs the same config through manetsim.RunConfig (fresh world
// every time) and through one reused World; the difference is build cost.
// It also times the cache key every campaign run computes.
func microCore(m *micro) {
	cfg := gridConfig(1)
	ctx := context.Background()
	check := func(name string, res *manetsim.Result, err error) {
		if err != nil || res.Delivered < cfg.TotalPackets {
			m.failf("%s: delivered %v, error %v", name, res, err)
		}
	}
	ns, _ := m.perCall(func() {
		res, err := manetsim.RunConfig(ctx, cfg)
		check("core.fresh_run", res, err)
	})
	m.set("core.fresh_run_ms", ns/1e6)
	world := manetsim.NewWorld()
	ns, _ = m.perCall(func() {
		res, err := world.Run(cfg)
		check("core.reset_run", res, err)
	})
	m.set("core.reset_run_ms", ns/1e6)

	var key string
	ns, _ = m.perCall(func() { key = cfg.CacheKey() })
	m.set("core.cachekey_us", ns/1e3)
	m.set("core.cachekey_bytes", float64(len(key)))
}

// storedResult is a payload of the size the store holds in practice: the
// JSON of a real (small) result.
func storedResult() (cfg manetsim.Config, payload []byte, err error) {
	cfg = manetsim.Config{
		Scenario:     manetsim.Chain(4),
		Transport:    manetsim.TransportSpec{Name: "newreno"},
		Seed:         1,
		TotalPackets: 550,
		BatchPackets: 50,
	}
	res, err := manetsim.RunConfig(context.Background(), cfg)
	if err != nil {
		return cfg, nil, err
	}
	payload, err = json.Marshal(res)
	return cfg, payload, err
}

func microStore(m *micro) {
	dir, err := os.MkdirTemp(m.scratch, "micro-store-")
	if err != nil {
		m.failf("store: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	_, payload, err := storedResult()
	if err != nil {
		m.failf("store: %v", err)
		return
	}
	st, err := store.Open(dir, manetsim.ResultSchemaVersion)
	if err != nil {
		m.failf("store: %v", err)
		return
	}
	n := 0
	ns, _ := m.perCall(func() {
		n++
		if err := st.Put(fmt.Sprintf("key-%d", n), payload); err != nil {
			m.failf("store.put: %v", err)
		}
	})
	m.set("store.put_us", ns/1e3)
	i, hits := 0, 0
	ns, calls := m.perCall(func() {
		i = i%n + 1
		if _, ok := st.Get(fmt.Sprintf("key-%d", i)); ok {
			hits++
		}
	})
	m.set("store.get_us", ns/1e3)
	if hits != calls+1 {
		m.failf("store.get: %d of %d reads hit", hits, calls+1)
	}
	ns, _ = m.perCall(func() {
		if _, ok := st.Get("absent"); ok {
			m.failf("store.miss: hit")
		}
	})
	m.set("store.miss_us", ns/1e3)
}

// microCampaign times the two ways a Campaign answers without simulating:
// from its in-memory cache, and (a fresh Campaign each call, as after a
// restart) from the store on disk.
func microCampaign(m *micro) {
	dir, err := os.MkdirTemp(m.scratch, "micro-campaign-")
	if err != nil {
		m.failf("campaign: %v", err)
		return
	}
	defer os.RemoveAll(dir)
	cfg, _, err := storedResult()
	if err != nil {
		m.failf("campaign: %v", err)
		return
	}
	ctx := context.Background()
	camp := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir), manetsim.WithWorkers(workers))
	run := func(c *manetsim.Campaign, name string) {
		if _, err := c.Run(ctx, cfg); err != nil {
			m.failf("%s: %v", name, err)
		}
	}
	run(camp, "campaign") // simulates once and fills both caches
	ns, _ := m.perCall(func() { run(camp, "campaign.cache_hit") })
	m.set("campaign.cache_hit_us", ns/1e3)
	var executed int64
	ns, _ = m.perCall(func() {
		c := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir), manetsim.WithWorkers(workers))
		run(c, "campaign.store_hit")
		executed += c.Executed()
	})
	m.set("campaign.store_hit_us", ns/1e3)
	if camp.Executed() != 1 || executed != 0 {
		m.failf("campaign: %d simulations on the first campaign (want 1), %d on the restarted ones (want 0)", camp.Executed(), executed)
	}
}
