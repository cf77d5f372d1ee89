package core

import (
	"fmt"
	"math/rand"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/phy"
	"manetsim/internal/pkt"
)

// Position is a node location in meters.
type Position struct {
	X, Y float64
}

// Flow is one transport connection of a scenario.
type Flow struct {
	Src, Dst pkt.NodeID

	// Transport overrides the run's default TransportSpec for this flow
	// when its Name is set; the zero value inherits the default. Mixed
	// per-flow transports enable coexistence studies (e.g. Vegas and
	// NewReno competing on the grid).
	Transport TransportSpec `json:",omitempty"`

	// Start delays the flow's first transmission by this offset from the
	// simulation epoch (a small decorrelating jitter is always added on
	// top). Zero starts immediately, the paper's setting.
	Start time.Duration `json:",omitempty"`
}

// GeneratorSpec describes seed-dependent scenario synthesis: the placement
// (and default flow set) is drawn from the run's seeded RNG at build time,
// so the same scenario value reproduces the same network per seed.
type GeneratorSpec struct {
	// Kind selects the generator; "random" is uniform placement with
	// connectivity retries, the paper's random topology.
	Kind string

	// Nodes, Width and Height parameterize random placement.
	Nodes  int
	Width  float64
	Height float64

	// FlowCount random flows are drawn when the scenario has no explicit
	// flow set.
	FlowCount int
}

// Scenario describes a network under test: node placement, the flow set
// with per-flow transports and start times, and the scenario-level routing
// and mobility choices. Build one incrementally from NewScenario with
// AddNode/AddFlow, or start from the paper's Chain/Grid/Random
// constructors and modify the result. Scenarios are plain data: they
// marshal deterministically to JSON (the Campaign cache key) and may be
// shared between runs as long as they are not mutated concurrently.
type Scenario struct {
	// Name is an optional label for rendering and logs.
	Name string `json:",omitempty"`

	// Nodes is the explicit placement; node IDs are indices into it.
	Nodes []Position `json:",omitempty"`

	// Flows is the transport connection set.
	Flows []Flow `json:",omitempty"`

	// Routing selects the routing substrate (default AODV, the paper's).
	Routing RoutingKind `json:",omitempty"`

	// Mobility selects the node movement model (default stationary).
	Mobility MobilitySpec `json:",omitempty"`

	// Generator, when non-nil, synthesizes placement (and, if Flows is
	// empty, the flow set) from the run's seeded RNG instead of Nodes.
	Generator *GeneratorSpec `json:",omitempty"`
}

// NewScenario returns an empty scenario to populate with AddNode/AddFlow.
func NewScenario(name string) *Scenario { return &Scenario{Name: name} }

// AddNode places a node at (x, y) meters and returns its ID.
func (s *Scenario) AddNode(x, y float64) pkt.NodeID {
	s.Nodes = append(s.Nodes, Position{X: x, Y: y})
	return pkt.NodeID(len(s.Nodes) - 1)
}

// AddFlow appends a flow from src to dst using the run's default transport
// and returns the scenario for chaining.
func (s *Scenario) AddFlow(src, dst pkt.NodeID) *Scenario {
	return s.Add(Flow{Src: src, Dst: dst})
}

// Add appends a fully specified flow (per-flow transport and/or start
// time) and returns the scenario for chaining.
func (s *Scenario) Add(f Flow) *Scenario {
	s.Flows = append(s.Flows, f)
	return s
}

// WithFlows replaces the flow set and returns the scenario for chaining.
func (s *Scenario) WithFlows(flows ...Flow) *Scenario {
	s.Flows = flows
	return s
}

// WithRouting sets the routing substrate and returns the scenario.
func (s *Scenario) WithRouting(k RoutingKind) *Scenario {
	s.Routing = k
	return s
}

// WithMobility sets the movement model and returns the scenario.
func (s *Scenario) WithMobility(m MobilitySpec) *Scenario {
	s.Mobility = m
	return s
}

// Clone returns a deep copy, so variants can be derived without aliasing
// the receiver's slices.
func (s *Scenario) Clone() *Scenario {
	c := *s
	c.Nodes = append([]Position(nil), s.Nodes...)
	c.Flows = append([]Flow(nil), s.Flows...)
	if s.Generator != nil {
		g := *s.Generator
		c.Generator = &g
	}
	return &c
}

// NumNodes returns the node count, or the generator's for synthesized
// scenarios.
func (s *Scenario) NumNodes() int {
	if s.Generator != nil {
		return s.Generator.Nodes
	}
	return len(s.Nodes)
}

// Chain returns an h-hop chain of 200 m spaced nodes with a single flow
// from end to end — the paper's first topology.
func Chain(hops int) *Scenario {
	s := NewScenario(fmt.Sprintf("chain-%d", hops))
	if hops < 1 {
		// Left empty; Validate reports the actionable error at run time so
		// constructor call sites stay assignment-friendly.
		return s
	}
	for _, p := range geo.Chain(hops) {
		s.AddNode(p.X, p.Y)
	}
	return s.AddFlow(0, pkt.NodeID(hops))
}

// Grid returns the paper's 21-node grid with its six crossing FTP flows
// (Figure 15).
func Grid() *Scenario {
	s := NewScenario("grid-21")
	pts, gf := geo.Grid21()
	for _, p := range pts {
		s.AddNode(p.X, p.Y)
	}
	for _, f := range gf {
		s.AddFlow(pkt.NodeID(f.Src), pkt.NodeID(f.Dst))
	}
	return s
}

// HiddenTerminal returns the interference-limited hidden-terminal
// topology: two parallel one-hop flows A->R1 and B->R2 on a line, spaced
// so the senders cannot carrier-sense each other (700 m apart, beyond
// CSRange = 550 m) while B's transmissions still reach R1 as
// interference (500 m, inside CSRange). B cannot decode R1's CTS or ACK
// frames (500 m > TxRange = 250 m), so collisions at R1 are unavoidable
// — but with RTS/CTS a collision costs a 20-byte RTS instead of a
// full data frame, and EIFS after each corrupted reception keeps B out
// of the exchange's SIFS gaps. Compare runs with Config.RTSThreshold 0
// (handshake on) and above the packet size (basic access) to measure
// the classic hidden-terminal trade-off.
func HiddenTerminal() *Scenario {
	s := NewScenario("hidden-terminal")
	a := s.AddNode(0, 0)
	r1 := s.AddNode(200, 0)
	b := s.AddNode(700, 0)
	r2 := s.AddNode(900, 0)
	s.AddFlow(a, r1)
	s.AddFlow(b, r2)
	return s
}

// Random returns the paper's 120-node random topology (2500x1000 m²) with
// ten random flows. Placement and flows are drawn from the run's seed.
func Random() *Scenario { return RandomField(120, 2500, 1000, 10) }

// RandomField returns a random topology over a width x height meter field:
// n nodes placed uniformly (redrawn until connected) and flows random
// distinct pairs, all drawn from the run's seed.
func RandomField(n int, width, height float64, flows int) *Scenario {
	return &Scenario{
		Name: fmt.Sprintf("random-%d", n),
		Generator: &GeneratorSpec{
			Kind: "random", Nodes: n, Width: width, Height: height, FlowCount: flows,
		},
	}
}

// Validate reports the first structural problem of the scenario: no nodes,
// no flows, flows referencing nonexistent nodes or looping back to their
// source, or negative start times. Generator scenarios validate what is
// checkable before synthesis.
func (s *Scenario) Validate() error {
	n := s.NumNodes()
	if s.Generator != nil {
		g := s.Generator
		if g.Kind != "random" {
			return fmt.Errorf("core: unknown scenario generator kind %q", g.Kind)
		}
		if g.Nodes < 2 {
			return fmt.Errorf("core: random scenario needs at least 2 nodes, got %d", g.Nodes)
		}
		if g.Width <= 0 || g.Height <= 0 {
			return fmt.Errorf("core: random scenario needs a positive field, got %gx%g m", g.Width, g.Height)
		}
		if len(s.Flows) == 0 && g.FlowCount < 1 {
			return fmt.Errorf("core: random scenario needs FlowCount >= 1 or explicit flows")
		}
		// Generated flows are distinct (src, dst) pairs, so more than the
		// field's ordered pairs could never all be drawn (float64: the
		// product of two ints may overflow).
		if pairs := float64(g.Nodes) * float64(g.Nodes-1); len(s.Flows) == 0 && float64(g.FlowCount) > pairs {
			return fmt.Errorf("core: random scenario asks for FlowCount %d distinct flows, but %d nodes have only %.0f (src, dst) pairs",
				g.FlowCount, g.Nodes, pairs)
		}
	} else {
		if n == 0 {
			return fmt.Errorf("core: scenario %q has no nodes; add them with AddNode or use a constructor", s.Name)
		}
		if len(s.Flows) == 0 {
			return fmt.Errorf("core: scenario %q has no flows; add at least one with AddFlow", s.Name)
		}
	}
	for i, f := range s.Flows {
		if f.Src < 0 || f.Dst < 0 || int(f.Src) >= n || int(f.Dst) >= n {
			return fmt.Errorf("core: flow %d references node %d->%d, but the scenario has %d nodes (IDs 0..%d)",
				i, f.Src, f.Dst, n, n-1)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("core: flow %d sends node %d to itself", i, f.Src)
		}
		if f.Start < 0 {
			return fmt.Errorf("core: flow %d has negative start time %v", i, f.Start)
		}
		if f.Transport.Name == "" && !f.Transport.IsZero() {
			// A per-flow spec replaces the run default entirely; options on
			// a variant-less spec would otherwise be silently discarded.
			return fmt.Errorf("core: flow %d sets transport options without a Name; a per-flow TransportSpec replaces the run default entirely (select a transport too, or leave the whole spec zero to inherit)", i)
		}
		if err := f.Transport.validate(specLabel{"flow %d", i}, true); err != nil {
			return err
		}
	}
	return nil
}

// materialize produces the concrete placement and flow set. Generator
// scenarios draw from rng (the run scheduler's source), so synthesis is
// reproducible per seed and — matching the pre-Scenario build order — the
// placement draws precede every other use of the stream.
func (s *Scenario) materialize(rng *rand.Rand) ([]geo.Point, []Flow, error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	if g := s.Generator; g != nil {
		pts, _, err := geo.Random(geo.RandomConfig{
			N: g.Nodes, Width: g.Width, Height: g.Height, Range: phy.TxRange,
		}, rng)
		if err != nil {
			return nil, nil, fmt.Errorf("core: scenario %q: %w", s.Name, err)
		}
		flows := s.Flows
		if len(flows) == 0 {
			gf := geo.PickFlows(g.Nodes, g.FlowCount, rng)
			flows = make([]Flow, len(gf))
			for i, f := range gf {
				flows[i] = Flow{Src: pkt.NodeID(f.Src), Dst: pkt.NodeID(f.Dst)}
			}
		}
		return pts, flows, nil
	}
	pts := make([]geo.Point, len(s.Nodes))
	for i, p := range s.Nodes {
		pts[i] = geo.Point{X: p.X, Y: p.Y}
	}
	return pts, s.Flows, nil
}
