// Package core is the scenario engine realizing the paper's evaluation
// methodology: it builds a scenario (node placement, flows, routing,
// mobility), attaches transport flows over the full PHY/MAC/AODV stack,
// runs a steady-state simulation until a fixed number of packets is
// delivered, and derives every reported metric — goodput, transport
// retransmissions, average window, link-layer drop probability, false
// route failures, Jain's fairness index and energy — using the batch-means
// method with 95% confidence intervals.
package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/mobility"
	"manetsim/internal/phy"
	"manetsim/internal/tcp"
)

// Protocol selects the transport variant under test by constant. It is a
// plain alias for a registry name: a spec with an empty Name resolves
// through Protocol.String ("Vegas" looks up "vegas"), and nothing else in
// the registry knows the constants exist. The type and
// TransportSpec.Protocol stay — rather than folding into Name — because
// the field is encoded in every Config.CacheKey, sweep cell key and stored
// result, so dropping it would orphan every result store written so far.
type Protocol int

// Transport protocols: the paper's three plus the classic Reno and Tahoe
// baselines from the related-work comparisons.
const (
	ProtoVegas Protocol = iota + 1
	ProtoNewReno
	ProtoPacedUDP
	ProtoReno
	ProtoTahoe
)

var protoNames = map[Protocol]string{
	ProtoVegas:    "Vegas",
	ProtoNewReno:  "NewReno",
	ProtoPacedUDP: "PacedUDP",
	ProtoReno:     "Reno",
	ProtoTahoe:    "Tahoe",
}

func (p Protocol) String() string {
	if s, ok := protoNames[p]; ok {
		return s
	}
	return fmt.Sprintf("proto(%d)", int(p))
}

// Params carries the optional per-variant transport parameters. The zero
// value of every field selects the variant's default, so specs only spell
// out what they change; fields irrelevant to the selected transport are
// ignored.
type Params struct {
	// Beta and Gamma override the Vegas β and γ thresholds in packets.
	// Both default to α (the spec's Alpha field): the paper fixes
	// α = β = γ, but Brakmo's original α < β band is expressible here.
	Beta  int `json:",omitempty"`
	Gamma int `json:",omitempty"`
	// BWFilterGain is the Westwood+ bandwidth-estimate low-pass pole in
	// (0,1): how much of the previous estimate survives each
	// once-per-RTT sample (default 0.9).
	BWFilterGain float64 `json:",omitempty"`
	// CoVWeight scales how strongly the adaptive-pacing sender stretches
	// its inter-packet gap under RTT variability: the pacing interval is
	// (srtt + CoVWeight·rttvar)/cwnd (default 2).
	CoVWeight float64 `json:",omitempty"`
	// MinPaceGap floors the adaptive pacing interval and seeds it before
	// the first RTT sample (default 1ms).
	MinPaceGap time.Duration `json:",omitempty"`
}

// TransportSpec configures the transport layer of a flow (or, as
// Config.Transport, the default for every flow that does not set its own).
// A spec selects its variant either by registry Name (any transport,
// including ones added with RegisterCC) or by the legacy Protocol
// constant, which resolves through the registry too.
type TransportSpec struct {
	// Name selects a registered transport by name (case-insensitive),
	// e.g. "vegas", "westwood", "pacing". When empty, Protocol selects
	// the variant instead.
	Name string `json:",omitempty"`

	Protocol    Protocol
	AckThinning bool // Altman-Jiménez dynamic delayed ACKs (TCP only)
	DelayedAck  bool // standard RFC 1122 delayed ACKs (TCP only)
	// Alpha is the Vegas α=β=γ threshold in packets (default 2).
	Alpha int
	// MaxWindow bounds the congestion window ("NewReno Optimal Window";
	// paper finds MaxWin=3 optimal for the 7-hop chain). 0 = unbounded.
	MaxWindow int
	// UDPGap is the paced-UDP inter-packet interval (required for
	// ProtoPacedUDP).
	UDPGap time.Duration

	// Params carries the variant-specific tuning knobs (Vegas β/γ,
	// Westwood+ filter gain, adaptive-pacing shape).
	Params Params
}

// IsZero reports whether the spec is entirely unset. A zero per-flow spec
// inherits the run default; anything else — a Name, a Protocol, or bare
// options — replaces it.
func (t TransportSpec) IsZero() bool { return t == TransportSpec{} }

// selected reports whether the spec names a transport at all (by registry
// name or legacy protocol constant).
func (t TransportSpec) selected() bool { return t.Name != "" || t.Protocol != 0 }

// Label renders the spec the way the paper labels its curves.
func (t TransportSpec) Label() string {
	s := t.Name
	vegas := t.Protocol == ProtoVegas
	if tr, err := resolveTransport(t); err == nil {
		s = tr.label
		vegas = tr.name == "vegas"
	} else if s == "" {
		s = t.Protocol.String()
	}
	if vegas && t.Alpha != 0 && t.Alpha != tcp.DefaultAlpha {
		s = fmt.Sprintf("%s(α=%d)", s, t.Alpha)
	}
	if t.MaxWindow > 0 {
		s = fmt.Sprintf("%s(MaxWin=%d)", s, t.MaxWindow)
	}
	if t.AckThinning {
		s += "+Thin"
	}
	if t.DelayedAck {
		s += "+DelAck"
	}
	return s
}

// specLabel names a transport spec in validation errors: a fixed name, or
// a format over a flow index. It is formatted only when an error is
// returned, so validating a scenario's flows builds no string on success.
type specLabel struct {
	format string
	flow   int // -1 for a fixed name
}

func (l specLabel) String() string {
	if l.flow < 0 {
		return l.format
	}
	return fmt.Sprintf(l.format, l.flow)
}

// flowContext labels flow fi's resolved transport spec.
func flowContext(fi int) specLabel { return specLabel{"flow %d transport", fi} }

// validate reports misconfigurations with the field spelled out so sweep
// failures point at the offending spec. allowZero accepts a spec that
// selects no transport (a per-flow spec inheriting the run default).
func (t TransportSpec) validate(where specLabel, allowZero bool) error {
	if !t.selected() {
		if allowZero {
			return nil
		}
		return fmt.Errorf("core: %s: no transport protocol set (set Name to a registered transport — e.g. %s — or a Protocol constant)",
			where, strings.Join(transports.names(), ", "))
	}
	tr, err := resolveTransport(t)
	if err != nil {
		return fmt.Errorf("%v (%s)", err, where)
	}
	if t.Alpha < 0 {
		return fmt.Errorf("core: %s: negative Vegas Alpha %d (threshold is in packets, >= 0)", where, t.Alpha)
	}
	if t.Params.Beta < 0 || t.Params.Gamma < 0 {
		return fmt.Errorf("core: %s: negative Vegas threshold (Beta=%d, Gamma=%d; packets, >= 0)", where, t.Params.Beta, t.Params.Gamma)
	}
	if t.Params.BWFilterGain < 0 {
		return fmt.Errorf("core: %s: negative BWFilterGain %g", where, t.Params.BWFilterGain)
	}
	if t.Params.CoVWeight < 0 {
		return fmt.Errorf("core: %s: negative CoVWeight %g", where, t.Params.CoVWeight)
	}
	if t.Params.MinPaceGap < 0 {
		return fmt.Errorf("core: %s: negative MinPaceGap %v", where, t.Params.MinPaceGap)
	}
	if t.MaxWindow < 0 {
		return fmt.Errorf("core: %s: negative MaxWindow %d (0 means unbounded)", where, t.MaxWindow)
	}
	if t.UDPGap < 0 {
		return fmt.Errorf("core: %s: negative UDPGap %v", where, t.UDPGap)
	}
	if t.AckThinning && t.DelayedAck {
		return fmt.Errorf("core: %s: AckThinning and DelayedAck are mutually exclusive", where)
	}
	if tr.check != nil {
		return tr.check(t, where)
	}
	return nil
}

// MobilityKind selects the node movement model.
type MobilityKind int

// Mobility models: the paper's static scenarios and the canonical random
// waypoint extension.
const (
	MobilityStationary MobilityKind = iota
	MobilityRandomWaypoint
)

// MobilitySpec configures node movement over the run. The zero value keeps
// the paper's static scenarios.
type MobilitySpec struct {
	Kind MobilityKind

	// MinSpeed and MaxSpeed bound the uniformly drawn per-leg speed in m/s
	// (random waypoint). MinSpeed defaults to 1 — the classic vmin=0
	// formulation stalls nodes forever.
	MinSpeed, MaxSpeed float64

	// Pause is the rest time at each waypoint.
	Pause time.Duration

	// FieldWidth and FieldHeight bound the movement area, anchored at the
	// origin. When both are zero the field is the bounding box of the
	// initial placement.
	FieldWidth, FieldHeight float64

	// PinFlowEndpoints freezes every flow's source and destination at its
	// initial position so mobility affects only the relays — the classic
	// setup isolating route churn from path-length drift (random waypoint
	// concentrates nodes toward the field center, which otherwise shortens
	// the measured paths as speed grows).
	PinFlowEndpoints bool

	// UpdateInterval is the position-refresh epoch of the channel
	// (default phy.DefaultUpdateInterval; at least 1 ms when set).
	UpdateInterval time.Duration
}

// buildMobility materializes the movement model for the placed nodes and
// flows. All randomness comes from rng (the scheduler's source) so mobile
// runs stay reproducible per seed.
func buildMobility(m MobilitySpec, pts []geo.Point, flows []Flow, rng *rand.Rand) (mobility.Model, error) {
	var model mobility.Model
	switch m.Kind {
	case MobilityStationary:
		return mobility.NewStationary(pts), nil
	case MobilityRandomWaypoint:
		field := geo.Bounds(pts)
		switch {
		case m.FieldWidth > 0 && m.FieldHeight > 0:
			field = geo.Rect{Max: geo.Point{X: m.FieldWidth, Y: m.FieldHeight}}
		case m.FieldWidth > 0 || m.FieldHeight > 0:
			// A half-specified field would silently collapse the movement
			// area to a line along one axis.
			return nil, fmt.Errorf("core: set both FieldWidth and FieldHeight (or neither for the initial bounding box)")
		}
		minSpeed := m.MinSpeed
		if minSpeed == 0 {
			// Default 1 m/s, but never above MaxSpeed: a sub-1 m/s crawl
			// with MinSpeed unset must stay expressible.
			minSpeed = 1
			if m.MaxSpeed > 0 && m.MaxSpeed < minSpeed {
				minSpeed = m.MaxSpeed
			}
		}
		var err error
		model, err = mobility.NewRandomWaypoint(mobility.WaypointConfig{
			Field:    field,
			MinSpeed: minSpeed,
			MaxSpeed: m.MaxSpeed,
			Pause:    m.Pause,
		}, pts, rng)
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("core: unknown mobility kind %d", m.Kind)
	}
	if m.PinFlowEndpoints {
		fixed := make(map[int]geo.Point)
		for _, f := range flows {
			fixed[int(f.Src)] = pts[f.Src]
			fixed[int(f.Dst)] = pts[f.Dst]
		}
		model = mobility.Pin(model, fixed)
	}
	return model, nil
}

// RoutingKind selects the routing substrate.
type RoutingKind int

// Routing choices; AODV is the paper's configuration, static shortest-path
// routing is the ablation.
const (
	RoutingAODV RoutingKind = iota
	RoutingStatic
)

// Config fully describes one simulation run: the scenario under test plus
// the run-level knobs (bandwidth, default transport, seed, measurement
// budget). Zero fields take the paper's defaults (2 Mbit/s, 110000 packets
// in batches of 10000, α=2).
type Config struct {
	// Scenario is the network under test. Required.
	Scenario *Scenario

	Bandwidth phy.Rate

	// Transport is the default TransportSpec for flows that do not carry
	// their own.
	Transport TransportSpec

	Seed int64

	// Measurement methodology (paper: 110000 total, batches of 10000,
	// first batch discarded).
	TotalPackets  int64
	BatchPackets  int64
	WarmupBatches int

	// NoCapture disables the PHY's 10 dB capture rule (ablation: any
	// overlapping signal within interference range corrupts receptions).
	NoCapture bool

	// LinkModel selects the link-impairment model (per-frame corruption,
	// delay jitter, capture ratio) the PHY consults on every frame
	// delivery. The zero value is the perfect channel — byte-identical
	// to runs predating the subsystem.
	LinkModel LinkModelSpec

	// Faults is the run's fault schedule: deterministic, clock-driven
	// disturbances (node crashes, link blackouts, partitions) injected at
	// their configured times. Empty keeps today's fault-free behavior,
	// byte-identical to runs predating the subsystem.
	Faults []FaultSpec `json:",omitempty"`

	// RTSThreshold enables 802.11 basic access for short frames: unicast
	// packets of at most this many bytes skip the RTS/CTS handshake.
	// 0 keeps RTS/CTS on every unicast frame (the paper's setting); a
	// value above the largest packet size disables RTS/CTS entirely.
	RTSThreshold int `json:",omitempty"`

	// MaxSimTime bounds runs that cannot reach TotalPackets (e.g. a
	// starved flow); the result is marked Truncated. Default 24h.
	MaxSimTime time.Duration

	// Observer, when non-nil, receives run events (batch closes, route
	// failures, retransmissions, window samples, progress). It is excluded
	// from the JSON encoding so campaign cache keys stay value-based.
	Observer *Observer `json:"-"`
}

// CacheKey returns the canonical string identity of the config: its
// deterministic JSON encoding by value (struct order is fixed, there are
// no map fields, and the Scenario pointer is followed into its nodes and
// flows, so two independently built but equal configs share a key). The
// Observer field is excluded by its json:"-" tag — attaching one never
// changes identity. A run's identity is the SHA-256 of this string:
// Campaign's in-memory cache keys by it, and the persistent result store
// addresses files by its hex encoding (a sweep derives it once per cell,
// not by encoding every run).
func (c Config) CacheKey() string {
	b, err := json.Marshal(c)
	if err != nil {
		// Config is a plain data struct; encoding cannot fail.
		panic(fmt.Sprintf("core: encoding config cache key: %v", err))
	}
	return string(b)
}

// WithDefaults returns c with every unset run-level knob filled in: the
// config a run executes and its Result records. Campaign re-attaches it
// to results served from the store, which stores them without it.
func WithDefaults(c Config) Config {
	if c.Bandwidth == 0 {
		c.Bandwidth = phy.Rate2Mbps
	}
	if c.TotalPackets == 0 {
		c.TotalPackets = 110000
	}
	if c.BatchPackets == 0 {
		c.BatchPackets = c.TotalPackets / 11
	}
	if c.WarmupBatches == 0 {
		c.WarmupBatches = 1
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 24 * time.Hour
	}
	if c.Transport.Alpha == 0 {
		c.Transport.Alpha = tcp.DefaultAlpha
	}
	return c
}

// minUpdateInterval is the shortest position epoch a run accepts: at
// 20 m/s a node moves 2 cm in 1 ms, and shorter epochs only burn time
// recomputing neighbors.
const minUpdateInterval = time.Millisecond

// validate rejects misconfigured runs with actionable errors before any
// simulation state is built. Flow-level checks live in Scenario.Validate,
// which runs during materialization.
func (c Config) validate() error {
	if c.Scenario == nil {
		return fmt.Errorf("core: Config.Scenario is nil; build one with NewScenario/AddNode or the Chain/Grid/Random constructors")
	}
	if c.Bandwidth < 0 {
		return fmt.Errorf("core: negative Bandwidth %g bit/s (0 selects the default 2 Mbit/s)", float64(c.Bandwidth))
	}
	if err := c.Transport.validate(specLabel{"Config.Transport", -1}, true); err != nil {
		return err
	}
	epoch := c.Scenario.Mobility.UpdateInterval
	if epoch <= 0 {
		epoch = phy.DefaultUpdateInterval
	}
	if err := c.LinkModel.validate("Config.LinkModel", epoch); err != nil {
		return err
	}
	if ui := c.Scenario.Mobility.UpdateInterval; ui < 0 || (ui > 0 && ui < minUpdateInterval) {
		return fmt.Errorf("core: Mobility.UpdateInterval %v below the %v floor (0 selects the default %v)", ui, minUpdateInterval, phy.DefaultUpdateInterval)
	}
	for i, f := range c.Faults {
		if err := f.validate(fmt.Sprintf("Config.Faults[%d]", i), c.Scenario.NumNodes()); err != nil {
			return err
		}
	}
	if c.RTSThreshold < 0 {
		return fmt.Errorf("core: negative RTSThreshold %d (bytes; 0 keeps RTS/CTS on every unicast frame)", c.RTSThreshold)
	}
	if c.TotalPackets < 0 || c.BatchPackets < 0 {
		return fmt.Errorf("core: negative measurement budget (TotalPackets=%d, BatchPackets=%d)", c.TotalPackets, c.BatchPackets)
	}
	if c.WarmupBatches < 0 {
		return fmt.Errorf("core: negative WarmupBatches %d (batches discarded before measuring; 0 selects the default 1)", c.WarmupBatches)
	}
	if c.BatchPackets > 0 && c.BatchPackets > c.TotalPackets/(int64(c.WarmupBatches)+1) {
		return fmt.Errorf("core: BatchPackets %d x (WarmupBatches %d + 1) exceeds TotalPackets %d: no batch would be measured",
			c.BatchPackets, c.WarmupBatches, c.TotalPackets)
	}
	if c.MaxSimTime < 0 {
		return fmt.Errorf("core: negative MaxSimTime %v (simulated-time bound; 0 selects the default 24h)", c.MaxSimTime)
	}
	return nil
}

var errStaticMobility = errors.New("core: static routing cannot follow moving nodes; use AODV with mobility")

func errUnknownRouting(k RoutingKind) error {
	return fmt.Errorf("core: unknown routing kind %d", k)
}
