package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"manetsim/internal/tcp"
	"manetsim/internal/udp"
)

// CCFactory builds a congestion-control strategy for one flow. The
// returned strategy is bound into the shared tcp.Engine — which supplies
// sequence accounting, RTO estimation, the retransmission timer, packet
// construction and window tracing — so registering a factory is all a new
// window-based transport needs. The spec carries the per-flow parameters
// (TransportSpec.Params plus the legacy Alpha/MaxWindow fields).
type CCFactory func(spec TransportSpec) (tcp.CongestionControl, error)

// rawBuilder builds fully custom endpoints for transports that are not
// realized by the shared engine (paced UDP). Internal-only: it needs the
// live scenario state.
type rawBuilder func(s *scenarioState, fi int, f Flow, spec TransportSpec) error

// registry is the one name table behind every pluggable kind (transports,
// link models, faults): entries are added under a canonical name plus
// aliases, looked up case-insensitively, and listed in canonical-name
// order. kind ("transport", "link model", "fault") is spelled into every
// panic and error, so the three kinds fail with one message shape.
type registry[E any] struct {
	kind   string
	mu     sync.RWMutex
	byName map[string]*E // every name and alias, lower-cased
	canon  []string      // canonical names, sorted
}

func newRegistry[E any](kind string) *registry[E] {
	return &registry[E]{kind: kind, byName: map[string]*E{}}
}

// add registers e under name and aliases. It panics on an empty or
// already-taken name — registration is a program-setup bug, not a runtime
// condition — and checks every name before inserting any, so a recovered
// panic leaves the registry as it was.
func (r *registry[E]) add(e *E, name string, aliases ...string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := append([]string{name}, aliases...)
	for i, n := range names {
		n = strings.ToLower(n)
		if n == "" {
			panic("core: empty " + r.kind + " name")
		}
		if _, dup := r.byName[n]; dup || slices.Contains(names[:i], n) {
			panic(fmt.Sprintf("core: %s %q registered twice", r.kind, n))
		}
		names[i] = n
	}
	for _, n := range names {
		r.byName[n] = e
	}
	r.canon = append(r.canon, names[0])
	sort.Strings(r.canon)
}

// lookup resolves a name or alias; an unknown name's error lists the
// registry.
func (r *registry[E]) lookup(name string) (*E, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := r.byName[strings.ToLower(name)]
	if e == nil {
		return nil, fmt.Errorf("core: unknown %s %q (registered: %s)",
			r.kind, name, strings.Join(r.canon, ", "))
	}
	return e, nil
}

// names returns every canonical name, sorted.
func (r *registry[E]) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return append([]string(nil), r.canon...)
}

// entries returns every entry once, sorted by canonical name.
func (r *registry[E]) entries() []*E {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]*E, len(r.canon))
	for i, n := range r.canon {
		out[i] = r.byName[n]
	}
	return out
}

// transport is one transport registry entry.
type transport struct {
	name    string   // canonical lower-case name
	aliases []string // additional lookup names
	label   string   // display name (the paper's curve labels)
	desc    string   // one-line description for listings
	newCC   CCFactory
	build   rawBuilder
	// check validates variant-specific spec parameters; generic checks
	// (negative values, exclusive ACK policies) run before it.
	check func(t TransportSpec, where specLabel) error
}

var transports = newRegistry[transport]("transport")

func registerTransport(tr *transport) { transports.add(tr, tr.name, tr.aliases...) }

// RegisterCC registers a window-based transport under name: specs naming
// it are realized by the shared engine with the factory's strategy bound
// in. It is the backing of the public manetsim.RegisterTransport and
// panics on an empty or duplicate name (registration is a program-setup
// bug, not a runtime condition).
func RegisterCC(name string, factory CCFactory) {
	if factory == nil {
		panic("core: nil transport factory")
	}
	registerTransport(&transport{
		name:  strings.ToLower(name),
		label: name,
		desc:  "registered congestion-control transport",
		newCC: factory,
	})
}

// TransportInfo describes one registered transport for listings.
type TransportInfo struct {
	// Name selects the transport in TransportSpec.Name.
	Name string
	// Aliases are accepted alternative names.
	Aliases []string
	// Label is the display name used in figure series and run summaries.
	Label string
	// Description is a one-line summary.
	Description string
}

// Transports lists every registered transport, sorted by name.
func Transports() []TransportInfo {
	var infos []TransportInfo
	for _, tr := range transports.entries() {
		infos = append(infos, TransportInfo{
			Name:        tr.name,
			Aliases:     append([]string(nil), tr.aliases...),
			Label:       tr.label,
			Description: tr.desc,
		})
	}
	return infos
}

// resolveTransport maps a spec to its registry entry: Name wins when set,
// otherwise the Protocol constant's name (Protocol.String) is looked up
// like any other.
func resolveTransport(t TransportSpec) (*transport, error) {
	if t.Name == "" {
		tr, err := transports.lookup(t.Protocol.String())
		if err != nil {
			return nil, fmt.Errorf("core: unknown protocol %d", int(t.Protocol))
		}
		return tr, nil
	}
	tr, err := transports.lookup(t.Name)
	if err != nil {
		return nil, err
	}
	if t.Protocol != 0 && strings.ToLower(t.Protocol.String()) != tr.name {
		return nil, fmt.Errorf("core: transport Name %q conflicts with Protocol %v; set one of them", t.Name, t.Protocol)
	}
	return tr, nil
}

// ccConfig maps the spec's transport parameters onto the engine
// configuration shared by every window-based variant.
func ccConfig(t TransportSpec) tcp.Config {
	return tcp.Config{
		Alpha:        t.Alpha,
		Beta:         t.Params.Beta,
		Gamma:        t.Params.Gamma,
		MaxWindow:    t.MaxWindow,
		BWFilterGain: t.Params.BWFilterGain,
		CoVWeight:    t.Params.CoVWeight,
		MinPaceGap:   t.Params.MinPaceGap,
	}
}

// buildPacedUDP builds the constant-bit-rate UDP source and counting
// sink (the paper's optimally paced reference transport).
func buildPacedUDP(s *scenarioState, fi int, f Flow, tspec TransportSpec) error {
	sl := &s.slots[fi]
	sl.udp = true
	out := s.stacks[f.Src].output
	if sl.usrc != nil {
		sl.usrc.Reset(fi, f.Src, f.Dst, tspec.UDPGap, out)
	} else {
		sl.usrc = udp.NewSender(s.sched, fi, f.Src, f.Dst, tspec.UDPGap, &s.uids, out)
	}
	if sl.usink != nil {
		sl.usink.Reset()
	} else {
		sl.usink = udp.NewSink(s.sched)
	}
	sl.usink.Delay = s.delay
	return nil
}

// checkVegas validates the Vegas thresholds: α ≤ β (Brakmo's additive
// increase/decrease band would invert otherwise).
func checkVegas(t TransportSpec, where specLabel) error {
	if t.Params.Beta > 0 {
		alpha := t.Alpha
		if alpha == 0 {
			alpha = tcp.DefaultAlpha
		}
		if t.Params.Beta < alpha {
			return fmt.Errorf("core: %s: Vegas Beta %d below Alpha %d (the band is α ≤ diff ≤ β)", where, t.Params.Beta, alpha)
		}
	}
	return nil
}

// checkPacedUDP requires the pacing interval.
func checkPacedUDP(t TransportSpec, where specLabel) error {
	if t.UDPGap == 0 {
		return fmt.Errorf("core: %s: paced UDP needs UDPGap > 0 (the inter-packet sending interval)", where)
	}
	return nil
}

// checkWestwood bounds the bandwidth filter pole.
func checkWestwood(t TransportSpec, where specLabel) error {
	if g := t.Params.BWFilterGain; g < 0 || g >= 1 {
		return fmt.Errorf("core: %s: Westwood+ BWFilterGain %g outside (0,1) (0 selects the default 0.9)", where, g)
	}
	return nil
}

const day = 24 * time.Hour

// checkPacing bounds the adaptive-pacing knobs.
func checkPacing(t TransportSpec, where specLabel) error {
	if t.Params.MinPaceGap > day {
		return fmt.Errorf("core: %s: adaptive-pacing MinPaceGap %v is absurdly large", where, t.Params.MinPaceGap)
	}
	return nil
}

func init() {
	registerTransport(&transport{
		name: "vegas", label: "Vegas",
		desc:  "TCP Vegas: delay-based proactive window control (paper's primary variant)",
		newCC: func(TransportSpec) (tcp.CongestionControl, error) { return tcp.NewVegasCC(), nil },
		check: checkVegas,
	})
	registerTransport(&transport{
		name: "newreno", label: "NewReno",
		desc:  "TCP NewReno: loss-based AIMD with partial-ACK fast recovery (RFC 3782)",
		newCC: func(TransportSpec) (tcp.CongestionControl, error) { return tcp.NewNewRenoCC(), nil },
	})
	registerTransport(&transport{
		name: "pacedudp", aliases: []string{"udp"}, label: "PacedUDP",
		desc:  "constant-bit-rate UDP at a fixed inter-packet gap (paper's optimal-pacing reference)",
		build: buildPacedUDP,
		check: checkPacedUDP,
	})
	registerTransport(&transport{
		name: "reno", label: "Reno",
		desc:  "classic TCP Reno: fast recovery exits on the first new ACK (RFC 2581)",
		newCC: func(TransportSpec) (tcp.CongestionControl, error) { return tcp.NewRenoCC1990(), nil },
	})
	registerTransport(&transport{
		name: "tahoe", label: "Tahoe",
		desc:  "TCP Tahoe: every loss collapses the window to Winit and slow-starts",
		newCC: func(TransportSpec) (tcp.CongestionControl, error) { return tcp.NewTahoeCC(), nil },
	})
	registerTransport(&transport{
		name: "westwood", aliases: []string{"westwood+"}, label: "Westwood+",
		desc:  "TCP Westwood+: backs off to a bandwidth-estimate window instead of blind halving (wireless-loss tolerant)",
		newCC: func(TransportSpec) (tcp.CongestionControl, error) { return tcp.NewWestwoodCC(), nil },
		check: checkWestwood,
	})
	registerTransport(&transport{
		name: "pacing", aliases: []string{"adaptivepacing"}, label: "AdaptivePacing",
		desc:  "rate-based adaptive pacing: spreads the window over srtt + CoVWeight·rttvar instead of ACK-clocked bursts",
		newCC: func(TransportSpec) (tcp.CongestionControl, error) { return tcp.NewPacingCC(), nil },
		check: checkPacing,
	})
}
