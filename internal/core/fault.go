package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"manetsim/internal/fault"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// FaultSpec selects and parameterizes one injected fault of a run
// (Config.Faults): a scheduled, deterministic disturbance — a node crash,
// a link blackout, a network partition — that the run survives or does
// not. A spec selects its injector by registry Name ("crash", "blackout",
// "partition", or anything added with RegisterFault); fields irrelevant to
// the selected injector are ignored, exactly like TransportSpec and
// LinkModelSpec. Fault transitions fire at their configured times and draw
// no randomness, so a faulted run consumes the same random stream as its
// fault-free twin everywhere else.
type FaultSpec struct {
	// Name selects a registered fault injector (case-insensitive).
	Name string `json:",omitempty"`

	// At is the injection time. Duration is how long the fault lasts;
	// 0 means permanent (the fault never heals).
	At       time.Duration `json:",omitempty"`
	Duration time.Duration `json:",omitempty"`

	// Node is the crashed node ("crash").
	Node int `json:",omitempty"`

	// From and To name the blacked-out link ("blackout"); Bidirectional
	// severs both directions.
	From          int  `json:",omitempty"`
	To            int  `json:",omitempty"`
	Bidirectional bool `json:",omitempty"`

	// Partition geometry ("partition"): either an explicit node set
	// (NodesA, with everyone else on side B) or an axis cut — Axis "x"
	// (default) or "y", with nodes strictly below Cut on side A.
	Axis   string  `json:",omitempty"`
	Cut    float64 `json:",omitempty"`
	NodesA []int   `json:",omitempty"`
}

// IsZero reports whether the spec is entirely unset.
func (f FaultSpec) IsZero() bool {
	return f.Name == "" && f.At == 0 && f.Duration == 0 && f.Node == 0 &&
		f.From == 0 && f.To == 0 && !f.Bidirectional &&
		f.Axis == "" && f.Cut == 0 && len(f.NodesA) == 0
}

// CrashFault returns the spec of a node crash at time at: the node's
// radio, MAC, router and transport endpoints go down, and come back up
// cold after downtime (0 = the node never restarts).
func CrashFault(node int, at, downtime time.Duration) FaultSpec {
	return FaultSpec{Name: "crash", Node: node, At: at, Duration: downtime}
}

// BlackoutFault returns the spec of a bidirectional link blackout between
// from and to over [at, at+duration).
func BlackoutFault(from, to int, at, duration time.Duration) FaultSpec {
	return FaultSpec{Name: "blackout", From: from, To: to, Bidirectional: true, At: at, Duration: duration}
}

// PartitionFault returns the spec of an axis cut: nodes with X < cut are
// severed from the rest over [at, at+duration).
func PartitionFault(cut float64, at, duration time.Duration) FaultSpec {
	return FaultSpec{Name: "partition", Axis: "x", Cut: cut, At: at, Duration: duration}
}

// Label renders the spec for sweep axes, outage reports and listings.
func (f FaultSpec) Label() string {
	name := strings.ToLower(f.Name)
	if e, err := resolveFault(f); err == nil {
		name = e.name
	}
	var s string
	switch name {
	case "crash":
		s = fmt.Sprintf("crash(node=%d)", f.Node)
	case "blackout":
		arrow := "->"
		if f.Bidirectional {
			arrow = "<->"
		}
		s = fmt.Sprintf("blackout(%d%s%d)", f.From, arrow, f.To)
	case "partition":
		if len(f.NodesA) > 0 {
			s = fmt.Sprintf("partition(|A|=%d)", len(f.NodesA))
		} else {
			axis := f.Axis
			if axis == "" {
				axis = "x"
			}
			s = fmt.Sprintf("partition(%s<%g)", axis, f.Cut)
		}
	default:
		s = name
	}
	s += fmt.Sprintf("@%v", f.At)
	if f.Duration > 0 {
		s += fmt.Sprintf("+%v", f.Duration)
	}
	return s
}

// FaultFactory builds a fault injector from its spec. The factory returns
// an error for unusable parameters.
type FaultFactory func(spec FaultSpec) (fault.Fault, error)

// faultEntry is one fault registry entry.
type faultEntry struct {
	name    string   // canonical lower-case name
	aliases []string // additional lookup names
	desc    string   // one-line description for listings
	build   FaultFactory
	// check validates injector-specific spec parameters against the
	// scenario's node count; the generic time checks run before it.
	check func(f FaultSpec, where string, numNodes int) error
}

var faults = newRegistry[faultEntry]("fault")

func registerFault(e *faultEntry) { faults.add(e, e.name, e.aliases...) }

// RegisterFault registers a fault injector under name, making it
// selectable everywhere a FaultSpec goes: Config.Faults, Campaign sweeps
// and cmd/manetsim -fault. It backs the public manetsim.RegisterFault and
// panics on an empty or duplicate name (registration is a program-setup
// bug, not a runtime condition).
func RegisterFault(name string, factory FaultFactory) {
	if factory == nil {
		panic("core: nil fault factory")
	}
	registerFault(&faultEntry{
		name:  strings.ToLower(name),
		desc:  "registered fault injector",
		build: factory,
	})
}

// FaultInfo describes one registered fault injector for listings.
type FaultInfo struct {
	// Name selects the injector in FaultSpec.Name.
	Name string
	// Aliases are accepted alternative names.
	Aliases []string
	// Description is a one-line summary.
	Description string
}

// Faults lists every registered fault injector, sorted by name.
func Faults() []FaultInfo {
	var infos []FaultInfo
	for _, e := range faults.entries() {
		infos = append(infos, FaultInfo{
			Name:        e.name,
			Aliases:     append([]string(nil), e.aliases...),
			Description: e.desc,
		})
	}
	return infos
}

// resolveFault maps a spec to its registry entry.
func resolveFault(f FaultSpec) (*faultEntry, error) { return faults.lookup(f.Name) }

// buildFault materializes the spec's injector for one run.
func buildFault(f FaultSpec) (fault.Fault, error) {
	e, err := resolveFault(f)
	if err != nil {
		return nil, err
	}
	return e.build(f)
}

// checkNode rejects node ids outside the scenario.
func checkNode(where, field string, id, numNodes int) error {
	if id < 0 || id >= numNodes {
		return fmt.Errorf("core: %s: %s %d outside the scenario's %d nodes", where, field, id, numNodes)
	}
	return nil
}

// validate reports misconfigured fault specs with the field spelled out,
// mirroring LinkModelSpec.validate. numNodes is the scenario's node count
// for bounds checks.
func (f FaultSpec) validate(where string, numNodes int) error {
	e, err := resolveFault(f)
	if err != nil {
		return fmt.Errorf("%v (%s)", err, where)
	}
	if f.At < 0 {
		return fmt.Errorf("core: %s: negative At %v (injection time)", where, f.At)
	}
	if f.Duration < 0 {
		return fmt.Errorf("core: %s: negative Duration %v (0 means permanent)", where, f.Duration)
	}
	if e.check != nil {
		return e.check(f, where, numNodes)
	}
	return nil
}

func checkCrash(f FaultSpec, where string, numNodes int) error {
	return checkNode(where, "Node", f.Node, numNodes)
}

func checkBlackout(f FaultSpec, where string, numNodes int) error {
	if err := checkNode(where, "From", f.From, numNodes); err != nil {
		return err
	}
	if err := checkNode(where, "To", f.To, numNodes); err != nil {
		return err
	}
	if f.From == f.To {
		return fmt.Errorf("core: %s: blackout From and To are both node %d (a link needs two endpoints)", where, f.From)
	}
	return nil
}

func checkPartition(f FaultSpec, where string, numNodes int) error {
	if len(f.NodesA) > 0 {
		for _, id := range f.NodesA {
			if err := checkNode(where, "NodesA entry", id, numNodes); err != nil {
				return err
			}
		}
		return nil
	}
	switch f.Axis {
	case "", "x", "y":
	default:
		return fmt.Errorf("core: %s: unknown partition Axis %q (use \"x\" or \"y\", or set NodesA)", where, f.Axis)
	}
	if math.IsNaN(f.Cut) {
		return fmt.Errorf("core: %s: partition Cut is NaN", where)
	}
	return nil
}

func nodeIDs(ids []int) []pkt.NodeID {
	out := make([]pkt.NodeID, len(ids))
	for i, id := range ids {
		out[i] = pkt.NodeID(id)
	}
	return out
}

func init() {
	registerFault(&faultEntry{
		name: "crash", aliases: []string{"nodecrash"},
		desc: "node crash: radio, MAC, router and transports go down at At, restart cold after Duration (0 = forever)",
		build: func(f FaultSpec) (fault.Fault, error) {
			return fault.NodeCrash{Node: pkt.NodeID(f.Node), At: sim.Time(f.At), Downtime: sim.Time(f.Duration)}, nil
		},
		check: checkCrash,
	})
	registerFault(&faultEntry{
		name: "blackout", aliases: []string{"linkblackout"},
		desc: "link blackout: frames From->To (both ways with Bidirectional) stop decoding over [At, At+Duration)",
		build: func(f FaultSpec) (fault.Fault, error) {
			return fault.LinkBlackout{
				From: pkt.NodeID(f.From), To: pkt.NodeID(f.To), Bidirectional: f.Bidirectional,
				At: sim.Time(f.At), Duration: sim.Time(f.Duration),
			}, nil
		},
		check: checkBlackout,
	})
	registerFault(&faultEntry{
		name: "partition", aliases: []string{"split"},
		desc: "network partition: an axis cut (Axis/Cut) or explicit node set (NodesA) splits the network over [At, At+Duration)",
		build: func(f FaultSpec) (fault.Fault, error) {
			return fault.Partition{
				At: sim.Time(f.At), Duration: sim.Time(f.Duration),
				SideA: nodeIDs(f.NodesA), Axis: f.Axis, Cut: f.Cut,
			}, nil
		},
		check: checkPartition,
	})
}
