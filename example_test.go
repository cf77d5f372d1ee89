package manetsim_test

import (
	"context"
	"fmt"
	"log"
	"os"
	"time"

	"manetsim"
)

// The quick start: one TCP Vegas flow over the paper's 7-hop chain at
// 2 Mbit/s, full paper methodology (110000 packets, batch means with 95%
// confidence intervals).
func ExampleRunConfig() {
	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:  manetsim.Chain(7),
		Bandwidth: manetsim.Rate2Mbps,
		Transport: manetsim.TransportSpec{Protocol: manetsim.Vegas},
		Seed:      1,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("goodput: %.0f kbit/s ±%.0f\n", res.AggGoodput.Mean/1e3, res.AggGoodput.HalfCI/1e3)
}

// Custom topologies compose from explicit node placement and per-flow
// transports — here a relay "vee" where a Vegas and a NewReno transfer
// converge on one sink, with the NewReno flow joining two seconds late.
func ExampleNewScenario() {
	scn := manetsim.NewScenario("vee")
	left := scn.AddNode(0, 0)
	right := scn.AddNode(400, 0)
	sink := scn.AddNode(200, 100)
	scn.Add(manetsim.Flow{
		Src: left, Dst: sink,
		Transport: manetsim.TransportSpec{Protocol: manetsim.Vegas},
	})
	scn.Add(manetsim.Flow{
		Src: right, Dst: sink,
		Transport: manetsim.TransportSpec{Protocol: manetsim.NewReno},
		Start:     2 * time.Second,
	})

	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     scn,
		Seed:         1,
		TotalPackets: 11000,
		BatchPackets: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	for i, est := range res.PerFlowGood {
		fmt.Printf("flow %d: %.0f kbit/s\n", i, est.Mean/1e3)
	}
}

// An Observer streams events out of a running simulation: batch closes,
// classified route failures, transport retransmissions and progress.
func ExampleObserver() {
	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     manetsim.Chain(4),
		Transport:    manetsim.TransportSpec{Protocol: manetsim.NewReno},
		TotalPackets: 11000,
		BatchPackets: 1000,
		Observer: &manetsim.Observer{
			Progress: func(delivered, total int64, simTime time.Duration) {
				fmt.Printf("%d/%d packets at t=%v\n", delivered, total, simTime.Round(time.Second))
			},
			RouteFailure: func(node manetsim.NodeID, falseFailure bool) {
				fmt.Printf("route failure at node %d (false=%v)\n", node, falseFailure)
			},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Delivered, "packets delivered")
}

// A Campaign runs declarative parameter grids — here protocol x bandwidth
// over the paper's grid topology, replicated over three seeds — with a
// shared single-flight cache, bounded parallelism and across-seed
// confidence intervals.
func ExampleCampaign_Sweep() {
	campaign := manetsim.NewCampaign(manetsim.QuickScale)
	cells, err := campaign.Sweep(context.Background(), manetsim.Sweep{
		Scenarios: []*manetsim.Scenario{manetsim.Grid()},
		Transports: []manetsim.TransportSpec{
			{Protocol: manetsim.Vegas},
			{Protocol: manetsim.Vegas, AckThinning: true},
			{Protocol: manetsim.NewReno},
		},
		Rates: []manetsim.Rate{manetsim.Rate2Mbps, manetsim.Rate11Mbps},
		Seeds: []int64{1, 2, 3},
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, cell := range cells {
		fmt.Printf("%s @ %g Mbit/s: %.0f kbit/s ±%.0f (Jain %.2f)\n",
			cell.Transport.Label(), float64(cell.Rate)/1e6,
			cell.Goodput.Mean/1e3, cell.Goodput.HalfCI/1e3, cell.Jain.Mean)
	}
}

// A World is a reusable run arena: it keeps everything a run allocates —
// scheduler heap, channel, MAC and routing stacks, transport engines — and
// rewinds it in place for the next run, so replicate loops amortize world
// construction. Results are byte-identical to fresh runs: the second run
// of the same config on the reused arena reproduces the first exactly.
func ExampleWorld() {
	w := manetsim.NewWorld()
	cfg := manetsim.Config{
		Scenario:     manetsim.Chain(4),
		Transport:    manetsim.TransportSpec{Protocol: manetsim.Vegas},
		Seed:         1,
		TotalPackets: 2200,
		BatchPackets: 200,
	}
	first, err := w.Run(cfg) // builds the world
	if err != nil {
		log.Fatal(err)
	}
	second, err := w.Run(cfg) // rewinds and reruns it
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(first.AggGoodput.Mean == second.AggGoodput.Mean)
	// Output: true
}

// Each Campaign worker slot carries its own World, so a seed-replicate
// sweep rewinds each worker's world instead of rebuilding it for every
// run. Nothing to configure, and results are byte-identical to fresh
// builds — a fresh run is just a World used once.
func ExampleCampaign_arenaReuse() {
	campaign := manetsim.NewCampaign(manetsim.QuickScale)
	var cfgs []manetsim.Config
	for seed := int64(1); seed <= 8; seed++ {
		cfgs = append(cfgs, manetsim.Config{
			Scenario:  manetsim.Chain(3),
			Transport: manetsim.TransportSpec{Protocol: manetsim.Vegas},
			Seed:      seed,
		})
	}
	results, err := campaign.RunAll(context.Background(), cfgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d replicates, each on a per-worker reusable arena\n", len(results))
	// Output: 8 replicates, each on a per-worker reusable arena
}

// aimdHalf is a deliberately tiny congestion control: additive increase,
// halve on any loss signal. Embedding CCBase supplies Init/OnStart/
// OnRTTSample/Window; the strategy drives the shared engine — which owns
// sequence accounting, the RTO machinery and retransmission — through its
// exported methods.
type aimdHalf struct {
	manetsim.CCBase
}

func (c *aimdHalf) OnAck(a manetsim.Ack) {
	e := c.Engine()
	if !a.NoEcho {
		e.SampleRTT(e.Now() - a.Echo)
	}
	e.AdvanceAck(a.Seq)
	e.SetWindow(e.Window() + 1/e.Window()) // additive increase
}

func (c *aimdHalf) OnDupAck(manetsim.Ack) {
	e := c.Engine()
	e.SetWindow(e.Window() / 2)
	e.Retransmit(e.AckNext())
}

func (c *aimdHalf) OnTimeout() {
	e := c.Engine()
	e.SetWindow(e.Window() / 2)
	e.BackoffRTO()
	e.RestartRTOTimer()
}

// RegisterTransport makes a custom congestion-control strategy selectable
// by name everywhere a TransportSpec goes: Config.Transport, per-flow
// specs, Campaign sweeps and cmd/manetsim -protocol.
func ExampleRegisterTransport() {
	manetsim.RegisterTransport("aimd-half", func(manetsim.TransportSpec) (manetsim.CongestionControl, error) {
		return &aimdHalf{}, nil
	})

	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     manetsim.Chain(3),
		Transport:    manetsim.TransportSpec{Name: "aimd-half"},
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aimd-half delivered %d packets\n", res.Delivered)
	// Output: aimd-half delivered 1100 packets
}

// Cancellation propagates into the event loop: a deadline or cancel stops
// a run promptly with ctx.Err().
func ExampleRunConfig_cancellation() {
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err := manetsim.RunConfig(ctx, manetsim.Config{
		Scenario:  manetsim.Random(),
		Transport: manetsim.TransportSpec{Protocol: manetsim.Vegas},
	})
	fmt.Println(err) // context.DeadlineExceeded once the budget is hit
}

// A Campaign with a persistent result store (WithStore) survives its
// process: every completed run lands on disk under its content address,
// so a killed sweep restarted against the same directory — here, a
// second Campaign standing in for the restarted process — re-runs
// nothing and serves every completed cell from the store.
func ExampleCampaign_resume() {
	dir, err := os.MkdirTemp("", "manetsim-store-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	sweep := manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(2)},
		Transports: []manetsim.TransportSpec{{Protocol: manetsim.Vegas}, {Protocol: manetsim.NewReno}},
		Seeds:      []int64{1, 2},
		Base:       manetsim.Config{TotalPackets: 550, BatchPackets: 50},
	}

	first := manetsim.NewCampaign(manetsim.QuickScale, manetsim.WithStore(dir))
	if _, err := first.Sweep(context.Background(), sweep); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("first sweep:   %d simulations executed\n", first.Executed())

	resumed := manetsim.NewCampaign(manetsim.QuickScale, manetsim.WithStore(dir))
	cells, err := resumed.Sweep(context.Background(), sweep)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resumed sweep: %d simulations executed, %d cells served from the store\n",
		resumed.Executed(), len(cells))
	// Output:
	// first sweep:   4 simulations executed
	// resumed sweep: 0 simulations executed, 2 cells served from the store
}

// A LinkModelSpec installs per-link impairments — here bursty
// Gilbert-Elliott loss with delay jitter on every link of a 3-hop
// chain. Loss is injected below the MAC's ARQ, so TCP only sees the
// residue the retry limit lets through; impaired runs stay
// byte-identical per seed.
func ExampleScenario_linkModel() {
	ge := manetsim.GilbertElliottModel(0.02, 0.3, 0.5)
	ge.Jitter = 10 * time.Microsecond

	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     manetsim.Chain(3),
		Transport:    manetsim.TransportSpec{Name: "newreno"},
		LinkModel:    ge,
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("delivered %d packets, impaired %t\n", res.Delivered, res.ImpairedFrames > 0)
	// Output: delivered 1100 packets, impaired true
}

// Fault injection: the mid-chain relay of a 4-hop chain crashes two
// seconds in and restarts two seconds later, severing the flow's only
// path. The run's FaultReport measures the outage — every packet still
// arrives once the route is re-discovered, and the resilience metrics
// separate goodput during the outage from steady state.
func ExampleScenario_faults() {
	crash := manetsim.CrashFault(2, 2*time.Second, 2*time.Second)

	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     manetsim.Chain(4),
		Transport:    manetsim.TransportSpec{Name: "newreno"},
		Faults:       []manetsim.FaultSpec{crash},
		Seed:         1,
		TotalPackets: 550,
		BatchPackets: 50,
	})
	if err != nil {
		log.Fatal(err)
	}
	rep := res.Faults
	o := rep.Outages[0]
	fmt.Printf("fault: %s\n", o.Fault)
	fmt.Printf("delivered %d packets, %v in outage, recovered after heal: %t\n",
		res.Delivered, rep.TimeInOutage, o.Recovered && o.RecoveredAfterHeal)
	// Output:
	// fault: crash(node=2)@2s+2s
	// delivered 550 packets, 2s in outage, recovered after heal: true
}
