// Package manetsim is a discrete-event simulator of TCP over multihop
// IEEE 802.11 wireless networks. It grew out of reproducing ElRakabawy,
// Lindemann & Vernon, "Improving TCP Performance for Multihop Wireless
// Networks" (DSN 2005) — TCP Vegas versus TCP NewReno, with and without
// dynamic ACK thinning, against an optimally paced UDP reference — and now
// exposes the full engine as a general scenario/observer/campaign API.
//
// The simulator models the complete stack at packet granularity: an IEEE
// 802.11 DCF MAC with RTS/CTS, NAV, EIFS and binary exponential backoff; a
// threshold wireless channel with two-ray-ground capture; AODV with the
// link-failure behaviour that causes the paper's "false route failures";
// a pluggable transport layer (TCP NewReno, Vegas, Reno, Tahoe, Westwood+
// and a rate-based adaptive-pacing sender, all behind one registry);
// receiver-side ACK thinning; and random waypoint mobility.
//
// # Scenarios
//
// A Scenario is the network under test: explicit node placement, an
// arbitrary flow set with per-flow transports and start times, and the
// scenario-level routing and mobility choices. The paper's three
// topologies are constructors — Chain, Grid, Random — and custom networks
// compose from NewScenario/AddNode/AddFlow:
//
//	scn := manetsim.NewScenario("cross")
//	a := scn.AddNode(0, 200)
//	b := scn.AddNode(400, 200)
//	scn.AddFlow(a, b)
//
// # Runs
//
// A Config is one run: the scenario plus the run-level knobs, with zero
// fields taking the paper's defaults. RunConfig executes it under a
// context:
//
//	res, err := manetsim.RunConfig(ctx, manetsim.Config{
//	    Scenario:  manetsim.Chain(7),
//	    Transport: manetsim.TransportSpec{Name: "vegas"},
//	    Seed:      1,
//	})
//	if err != nil { ... }
//	fmt.Printf("goodput: %.0f kbit/s\n", res.AggGoodput.Mean/1e3)
//
// Runs are deterministic per seed and safe to execute concurrently. An
// Observer (set as Config.Observer) streams batch closes, classified
// route failures, transport retransmissions, window samples and progress
// out of a run; with no observer attached the hot path stays
// allocation-free. The default measurement methodology matches the paper:
// run until 110000 packets are delivered, split into batches of 10000,
// discard the first, and report batch means with 95% confidence intervals.
//
// # Transports
//
// Transports are plugins: every variant is a named registry entry, and a
// TransportSpec selects one by Name. Window-based variants share
// one sender engine and differ only in their CongestionControl strategy;
// RegisterTransport adds new strategies that become selectable everywhere
// a spec goes, including Campaign sweeps and cmd/manetsim:
//
//	manetsim.RegisterTransport("mine", func(manetsim.TransportSpec) (manetsim.CongestionControl, error) {
//	    return &myCC{}, nil
//	})
//	res, err := manetsim.RunConfig(ctx, manetsim.Config{
//	    Scenario:  scn,
//	    Transport: manetsim.TransportSpec{Name: "mine"},
//	})
//
// # Campaigns
//
// A Campaign executes parameter studies: it deduplicates identical runs
// through a single-flight cache, bounds parallelism, applies a common
// Scale, and aggregates seed replications into confidence intervals. A
// campaign keys, runs, stores and reports each config in one canonical
// form, its defaults filled, so configs that run alike run once. See
// Campaign.Sweep for declarative protocol x rate x scenario x seed grids.
//
// Campaigns also run as shared, durable infrastructure. WithStore
// attaches a persistent content-addressed result store (every completed
// run lands on disk under the SHA-256 of its canonical Config.CacheKey), which
// makes sweeps resumable — a killed week-long grid restarted against the
// same directory re-runs only its incomplete cells — and shareable
// between processes. Cells are addressed canonically by CellKey across
// the in-memory cache, the disk store and the HTTP API. Server (the
// "manetsim serve" subcommand) exposes a campaign over HTTP:
// submit/status/results plus an NDJSON stream of per-run progress.
package manetsim

import (
	"context"
	"time"

	"manetsim/internal/core"
	"manetsim/internal/mac"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/stats"
	"manetsim/internal/tcp"
)

// NodeID identifies a node in a scenario (its index in the placement).
type NodeID = pkt.NodeID

// Channel bit rates of IEEE 802.11b as evaluated in the paper.
const (
	Rate2Mbps   = phy.Rate2Mbps
	Rate5_5Mbps = phy.Rate5_5Mbps
	Rate11Mbps  = phy.Rate11Mbps
)

// Rate is a channel bit rate in bit/s.
type Rate = phy.Rate

// TransportSpec configures the transport layer of a flow (or the run-wide
// default, Config.Transport). A spec selects its variant by registry
// Name: "vegas", "newreno", "pacedudp", "reno", "tahoe", "westwood",
// "pacing", or anything added with RegisterTransport.
type TransportSpec = core.TransportSpec

// Params carries the optional per-variant transport parameters of a
// TransportSpec (Vegas β/γ, the Westwood+ bandwidth filter gain, the
// adaptive-pacing shape). Zero fields select the variant defaults.
type Params = core.Params

// TransportInfo describes one registered transport (see Transports).
type TransportInfo = core.TransportInfo

// Transports lists every registered transport — built-in and registered —
// sorted by name.
func Transports() []TransportInfo { return core.Transports() }

// TransportFactory builds the congestion-control strategy for one flow of
// a registered transport. The spec carries the flow's parameters; the
// factory returns an error for unusable ones.
type TransportFactory = core.CCFactory

// RegisterTransport adds a window-based transport under name, making it
// selectable everywhere a TransportSpec goes: Config.Transport, per-flow
// specs, Campaign sweeps, and cmd/manetsim -protocol. The factory's strategy is
// bound into the shared sender engine, which supplies sequence accounting,
// RTO estimation, retransmission and window tracing; the strategy only
// decides the window policy and loss reaction. RegisterTransport panics on
// an empty or duplicate name (registration happens at program setup).
//
// Register from init or main before any runs start; the registry is safe
// for concurrent reads during runs.
func RegisterTransport(name string, factory TransportFactory) {
	core.RegisterCC(name, factory)
}

// CongestionControl is the strategy interface a registered transport
// implements: the per-variant reaction to ACKs, duplicate ACKs, RTT
// samples and timeouts, driving the shared engine. Embed CCBase for
// neutral defaults and implement only the reactions the variant needs.
type CongestionControl = tcp.CongestionControl

// CCBase is the embeddable helper for CongestionControl implementations:
// it stores the engine binding (Engine()) and supplies neutral defaults
// for Init, OnStart, OnRTTSample and Window.
type CCBase = tcp.CCBase

// TransportEngine is the shared sender machinery a CongestionControl
// drives: window and sequence accounting (SetWindow, AdvanceAck, GoBackN,
// Retransmit), the RTO estimator (SampleRTT, RestartRTOTimer, BackoffRTO,
// FineRTO) and optional rate pacing (EnablePacing).
type TransportEngine = tcp.Engine

// Ack summarizes one acknowledgment for a CongestionControl strategy.
type Ack = tcp.Ack

// Scenario describes the network under test: node placement, flows with
// per-flow transports and start times, routing and mobility.
type Scenario = core.Scenario

// Flow is one transport connection of a scenario.
type Flow = core.Flow

// Position is a node location in meters.
type Position = core.Position

// NewScenario returns an empty named scenario to populate with
// AddNode/AddFlow.
func NewScenario(name string) *Scenario { return core.NewScenario(name) }

// Chain returns an h-hop chain of 200 m spaced nodes with a single flow
// from end to end — the paper's first topology.
func Chain(hops int) *Scenario { return core.Chain(hops) }

// Grid returns the paper's 21-node grid with its six crossing FTP flows.
func Grid() *Scenario { return core.Grid() }

// Random returns the paper's 120-node random topology (2500x1000 m²) with
// ten random flows, drawn from the run's seed.
func Random() *Scenario { return core.Random() }

// HiddenTerminal returns the interference-limited hidden-terminal
// topology: two parallel one-hop flows whose senders cannot carrier-sense
// each other but still collide at the first receiver. Compare runs with
// Config.RTSThreshold off and on to measure the classic RTS/CTS trade-off.
func HiddenTerminal() *Scenario { return core.HiddenTerminal() }

// RandomField returns a seed-synthesized random topology: n nodes placed
// uniformly on a width x height meter field with the given number of
// random flows.
func RandomField(n int, width, height float64, flows int) *Scenario {
	return core.RandomField(n, width, height, flows)
}

// Routing substrates.
const (
	RoutingAODV   = core.RoutingAODV
	RoutingStatic = core.RoutingStatic
)

// RoutingKind selects the routing substrate (AODV is the paper's).
type RoutingKind = core.RoutingKind

// Mobility models: stationary nodes (the paper's setting) or random
// waypoint movement inside a bounded field.
const (
	MobilityStationary     = core.MobilityStationary
	MobilityRandomWaypoint = core.MobilityRandomWaypoint
)

// MobilityKind selects the node movement model.
type MobilityKind = core.MobilityKind

// MobilitySpec configures node movement over a run (random waypoint speed
// range, pause time, field bounds, endpoint pinning).
type MobilitySpec = core.MobilitySpec

// LinkModelSpec configures per-link impairments for a run: the model
// selected by registry Name — "perfect" (the default), "uniform" (alias
// "loss"), "ber", "gilbert-elliott" (alias "ge"), "distance", or anything
// added with RegisterLinkModel — plus its parameters, an optional per-link
// delay Jitter and the receiver capture-threshold override CaptureRatio.
// The zero spec is the perfect channel and keeps every run byte-identical
// to the pre-impairment simulator. Apply one with a Config.LinkModel
// field or a Sweep's LinkModels axis.
type LinkModelSpec = core.LinkModelSpec

// UniformLossModel returns a spec dropping every frame copy independently
// with probability p.
func UniformLossModel(p float64) LinkModelSpec { return core.UniformLossModel(p) }

// BERModel returns a spec derived from an independent bit error rate over
// frameBits-bit frames: frame loss = 1-(1-ber)^frameBits.
func BERModel(ber float64, frameBits int) LinkModelSpec {
	return core.BERModel(ber, frameBits)
}

// GilbertElliottModel returns a bursty two-state loss spec: links flip
// good->bad with pGoodBad and bad->good with pBadGood per frame, losing
// lossBad of the frames sent while bad (and none while good).
func GilbertElliottModel(pGoodBad, pBadGood, lossBad float64) LinkModelSpec {
	return core.GilbertElliottModel(pGoodBad, pBadGood, lossBad)
}

// LinkModelInfo describes one registered link model (see LinkModels).
type LinkModelInfo = core.LinkModelInfo

// LinkModels lists every registered link-impairment model — built-in and
// registered — sorted by name.
func LinkModels() []LinkModelInfo { return core.LinkModels() }

// LinkModelFactory builds the impairment model for a run from its spec;
// it returns an error for unusable parameters.
type LinkModelFactory = core.LinkModelFactory

// RegisterLinkModel adds a link-impairment model under name, making it
// selectable everywhere a LinkModelSpec goes: Config.LinkModel, Campaign
// sweeps, and cmd/manetsim -link-model. It panics on an empty or
// duplicate name; register from init or main before any runs start.
func RegisterLinkModel(name string, factory LinkModelFactory) {
	core.RegisterLinkModel(name, factory)
}

// FaultSpec configures one injected fault of a run: a scheduled,
// deterministic disturbance selected by registry Name — "crash" (alias
// "nodecrash"), "blackout" (alias "linkblackout"), "partition" (alias
// "split"), or anything added with RegisterFault — with its injection
// time At and Duration (0 = permanent). Build common specs with
// CrashFault, BlackoutFault and PartitionFault; apply them with a
// Config.Faults list or a Sweep's Faults axis. Faulted
// runs report resilience metrics in Result.Faults.
type FaultSpec = core.FaultSpec

// CrashFault returns the spec of a node crash at time at: the node's
// radio, MAC, router and transport endpoints go down and restart cold
// after downtime (0 = the node never comes back).
func CrashFault(node int, at, downtime time.Duration) FaultSpec {
	return core.CrashFault(node, at, downtime)
}

// BlackoutFault returns the spec of a bidirectional link blackout
// between from and to over [at, at+duration).
func BlackoutFault(from, to int, at, duration time.Duration) FaultSpec {
	return core.BlackoutFault(from, to, at, duration)
}

// PartitionFault returns the spec of an axis-cut network partition:
// nodes with X < cut are severed from the rest over [at, at+duration).
func PartitionFault(cut float64, at, duration time.Duration) FaultSpec {
	return core.PartitionFault(cut, at, duration)
}

// FaultInfo describes one registered fault injector (see Faults).
type FaultInfo = core.FaultInfo

// Faults lists every registered fault injector — built-in and registered
// — sorted by name.
func Faults() []FaultInfo { return core.Faults() }

// FaultFactory builds the fault injector for a run from its spec; it
// returns an error for unusable parameters.
type FaultFactory = core.FaultFactory

// RegisterFault adds a fault injector under name, making it selectable
// everywhere a FaultSpec goes: Config.Faults, Campaign sweeps, and
// cmd/manetsim -fault. It panics on an empty or duplicate name; register
// from init or main before any runs start.
func RegisterFault(name string, factory FaultFactory) {
	core.RegisterFault(name, factory)
}

// FaultReport carries the resilience metrics of a faulted run (see
// Result.Faults): per-outage recovery times, the goodput split between
// outage and healthy time, frames cut by the fault plane, and the route
// repairs the faults triggered.
type FaultReport = core.FaultReport

// OutageReport measures one injected fault's outage window and the
// network's recovery from it.
type OutageReport = core.OutageReport

// Config is the full description of one run: the scenario plus run-level
// knobs. Zero fields take the paper's defaults (2 Mbit/s, 110000 packets
// in batches of 10000, one warm-up batch discarded, a 24h simulated-time
// bound). Execute one with RunConfig, World.Run or Campaign.Run, or a
// list of them with Campaign.RunAll.
type Config = core.Config

// Result carries all measurements of a run with batch-means confidence
// intervals.
type Result = core.Result

// Batch holds the raw per-batch measurements.
type Batch = core.Batch

// Estimate is a point estimate with a 95% confidence interval.
type Estimate = stats.Estimate

// EnergyReport summarizes radio energy consumption of a run.
type EnergyReport = core.EnergyReport

// DelaySummary reports end-to-end packet latency quantiles of a run.
type DelaySummary = core.DelaySummary

// Observer holds optional callbacks for run events (batch closes,
// classified route failures, transport retransmissions, window samples,
// progress), invoked synchronously from the event loop; nil callbacks are
// skipped. Attach one as Config.Observer.
type Observer = core.Observer

// RunConfig executes one Config under ctx and returns its measurements. A
// cancelled context aborts the run promptly and returns ctx.Err(). It is
// safe to call concurrently from multiple goroutines (each run is
// self-contained); Campaign exploits this to sweep parameters in parallel.
func RunConfig(ctx context.Context, cfg Config) (*Result, error) {
	return core.RunContext(ctx, cfg)
}

// World is a reusable run arena. It keeps every allocation a run makes —
// scheduler heap, channel and spatial grid, per-node MAC and routing
// stacks, transport engines, packet pool — and rewinds them in place for
// the next run instead of rebuilding from scratch. Results are
// byte-identical to fresh runs of the same Config. A World is not safe for
// concurrent use, but separate Worlds run concurrently without
// restriction; each Campaign worker slot carries one automatically, so
// explicit Worlds are only needed for custom replicate loops.
type World = core.World

// NewWorld returns an empty arena: the first run builds the full
// simulation state and subsequent runs reuse it.
func NewWorld() *World { return core.NewWorld() }

// FourHopPropagationDelay returns the paper's Table 2 value for a given
// rate: the minimal link-layer delay for a TCP data packet to advance four
// hops along a chain with zero queueing.
func FourHopPropagationDelay(rate Rate) time.Duration {
	return mac.FourHopPropagationDelay(rate)
}

// ExchangeTime returns the duration of one uncontended per-hop
// DIFS + RTS/CTS/DATA/ACK exchange for a network-layer packet of the given
// size at the given rate — useful for sizing paced-UDP sweeps.
func ExchangeTime(rate Rate, netBytes int) time.Duration {
	return mac.NewTiming(rate).ExchangeTime(netBytes)
}
