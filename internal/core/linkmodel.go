package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"manetsim/internal/linkmodel"
	"manetsim/internal/mac"
)

// LinkModelSpec selects and parameterizes the link-impairment model of a
// run (Config.LinkModel): the per-frame corruption law the PHY consults
// on every frame delivery, plus the channel-level jitter and capture
// knobs. The zero value is the perfect channel — today's behavior,
// byte-identical to runs that never touch the subsystem. A spec selects
// its model by registry Name ("perfect", "uniform", "ber",
// "gilbert-elliott", "distance", or anything added with
// RegisterLinkModel); fields irrelevant to the selected model are
// ignored, exactly like TransportSpec.
type LinkModelSpec struct {
	// Name selects a registered link model (case-insensitive). Empty
	// selects "perfect".
	Name string `json:",omitempty"`

	// LossRate is the per-frame corruption probability of the "uniform"
	// model, in [0,1].
	LossRate float64 `json:",omitempty"`

	// BER and FrameBits parameterize the "ber" model: frames of
	// FrameBits bits are corrupted with probability 1-(1-BER)^FrameBits.
	BER       float64 `json:",omitempty"`
	FrameBits int     `json:",omitempty"`

	// Gilbert-Elliott two-state parameters: per-frame transition
	// probabilities between the good and bad states and the
	// state-conditional frame loss probabilities.
	PGoodBad float64 `json:",omitempty"`
	PBadGood float64 `json:",omitempty"`
	LossGood float64 `json:",omitempty"`
	LossBad  float64 `json:",omitempty"`

	// Jitter adds a uniform per-frame propagation-delay jitter in
	// [0, Jitter) to every delivered signal, drawn from the link's
	// stream. It applies under any model, including perfect. Must not
	// exceed 10 µs, half the MAC slot time (maxJitter), nor the channel's
	// position-epoch interval.
	Jitter time.Duration `json:",omitempty"`

	// CaptureRatio overrides the receiver capture power ratio (linear;
	// the default 0 keeps phy.CaptureThreshold = 10, i.e. 10 dB). Values
	// below 1 would let a weaker frame survive a stronger interferer, so
	// the spec requires >= 1.
	CaptureRatio float64 `json:",omitempty"`
}

// IsZero reports whether the spec is entirely unset (the perfect
// channel).
func (l LinkModelSpec) IsZero() bool { return l == LinkModelSpec{} }

// UniformLossModel returns the spec of the i.i.d. random-loss channel:
// every frame is corrupted independently with probability p.
func UniformLossModel(p float64) LinkModelSpec {
	return LinkModelSpec{Name: "uniform", LossRate: p}
}

// BERModel returns the spec of the bit-error-rate channel over frames of
// frameBits bits.
func BERModel(ber float64, frameBits int) LinkModelSpec {
	return LinkModelSpec{Name: "ber", BER: ber, FrameBits: frameBits}
}

// GilbertElliottModel returns the spec of the classic bursty two-state
// channel: lossless good state, lossBad-lossy bad state, with the given
// per-frame transition probabilities.
func GilbertElliottModel(pGoodBad, pBadGood, lossBad float64) LinkModelSpec {
	return LinkModelSpec{Name: "gilbert-elliott", PGoodBad: pGoodBad, PBadGood: pBadGood, LossBad: lossBad}
}

// Label renders the spec for sweep axes and figure series.
func (l LinkModelSpec) Label() string {
	e, err := resolveLinkModel(l)
	name := strings.ToLower(l.Name)
	if err == nil {
		name = e.name
	} else if name == "" {
		name = "perfect"
	}
	var s string
	switch name {
	case "uniform":
		s = fmt.Sprintf("uniform(%g%%)", l.LossRate*100)
	case "ber":
		s = fmt.Sprintf("ber(%g/%db)", l.BER, l.FrameBits)
	case "gilbert-elliott":
		s = fmt.Sprintf("ge(%g/%g,%g/%g)", l.PGoodBad, l.PBadGood, l.LossGood, l.LossBad)
	default:
		s = name
	}
	if l.Jitter > 0 {
		s += fmt.Sprintf("+j%v", l.Jitter)
	}
	return s
}

// LinkModelFactory builds a link-impairment model from its spec. The
// factory returns an error for unusable parameters.
type LinkModelFactory func(spec LinkModelSpec) (linkmodel.Model, error)

// linkModelEntry is one link-model registry entry.
type linkModelEntry struct {
	name    string   // canonical lower-case name
	aliases []string // additional lookup names
	desc    string   // one-line description for listings
	build   LinkModelFactory
	// check validates model-specific spec parameters; the generic
	// probability/jitter checks run before it.
	check func(l LinkModelSpec, where string) error
}

var linkModels = newRegistry[linkModelEntry]("link model")

func registerLinkModel(e *linkModelEntry) { linkModels.add(e, e.name, e.aliases...) }

// RegisterLinkModel registers a link-impairment model under name, making
// it selectable everywhere a LinkModelSpec goes: Config.LinkModel, Campaign
// sweeps and cmd/manetsim -link-model. It backs the public
// manetsim.RegisterLinkModel and panics on an empty or duplicate name
// (registration is a program-setup bug, not a runtime condition).
func RegisterLinkModel(name string, factory LinkModelFactory) {
	if factory == nil {
		panic("core: nil link model factory")
	}
	registerLinkModel(&linkModelEntry{
		name:  strings.ToLower(name),
		desc:  "registered link-impairment model",
		build: factory,
	})
}

// LinkModelInfo describes one registered link model for listings.
type LinkModelInfo struct {
	// Name selects the model in LinkModelSpec.Name.
	Name string
	// Aliases are accepted alternative names.
	Aliases []string
	// Description is a one-line summary.
	Description string
}

// LinkModels lists every registered link model, sorted by name.
func LinkModels() []LinkModelInfo {
	var infos []LinkModelInfo
	for _, e := range linkModels.entries() {
		infos = append(infos, LinkModelInfo{
			Name:        e.name,
			Aliases:     append([]string(nil), e.aliases...),
			Description: e.desc,
		})
	}
	return infos
}

// resolveLinkModel maps a spec to its registry entry; the empty Name is
// the perfect channel.
func resolveLinkModel(l LinkModelSpec) (*linkModelEntry, error) {
	if l.Name == "" {
		return linkModels.lookup("perfect")
	}
	return linkModels.lookup(l.Name)
}

// buildLinkModel materializes the spec's model for one run. A perfect
// spec returns nil — the channel's fast path.
func buildLinkModel(l LinkModelSpec) (linkmodel.Model, error) {
	e, err := resolveLinkModel(l)
	if err != nil {
		return nil, err
	}
	m, err := e.build(l)
	if err != nil {
		return nil, err
	}
	if _, perfect := m.(linkmodel.Perfect); perfect {
		return nil, nil
	}
	return m, nil
}

// checkProb rejects probabilities outside [0,1], including NaN (which
// fails every comparison and would otherwise slip through one-sided
// checks).
func checkProb(where, field string, v float64) error {
	if math.IsNaN(v) || v < 0 || v > 1 {
		return fmt.Errorf("core: %s: %s %g outside [0,1]", where, field, v)
	}
	return nil
}

// maxJitter bounds LinkModelSpec.Jitter. The MAC's CTS and ACK timeouts
// allow one SlotTime beyond the nominal exchange, and an exchange carries
// two jittered copies (DATA then ACK, or RTS then CTS), so each may add
// at most half a slot.
const maxJitter = mac.SlotTime / 2

// validate reports misconfigured link-model specs with the field spelled
// out, mirroring TransportSpec.validate. epoch is the channel's
// position-update interval: jitter beyond it would push a frame's
// arrival into a later position epoch than the one that produced it.
func (l LinkModelSpec) validate(where string, epoch time.Duration) error {
	e, err := resolveLinkModel(l)
	if err != nil {
		return fmt.Errorf("%v (%s)", err, where)
	}
	for _, p := range []struct {
		field string
		v     float64
	}{
		{"LossRate", l.LossRate},
		{"BER", l.BER},
		{"PGoodBad", l.PGoodBad},
		{"PBadGood", l.PBadGood},
		{"LossGood", l.LossGood},
		{"LossBad", l.LossBad},
	} {
		if err := checkProb(where, p.field, p.v); err != nil {
			return err
		}
	}
	if l.FrameBits < 0 {
		return fmt.Errorf("core: %s: negative FrameBits %d", where, l.FrameBits)
	}
	if l.Jitter < 0 {
		return fmt.Errorf("core: %s: negative Jitter %v", where, l.Jitter)
	}
	if l.Jitter > epoch {
		return fmt.Errorf("core: %s: Jitter %v exceeds the position-epoch interval %v (a jittered frame would outlive the positions it was launched from; lower Jitter or raise Mobility.UpdateInterval)",
			where, l.Jitter, epoch)
	}
	if l.Jitter > maxJitter {
		return fmt.Errorf("core: %s: Jitter %v exceeds the bound %v, half the MAC slot time (a jittered DATA copy plus a jittered ACK copy must fit the one-slot slack of the CTS/ACK timeouts, or exchanges time out spuriously and AODV sees false link failures)",
			where, l.Jitter, maxJitter)
	}
	if math.IsNaN(l.CaptureRatio) || (l.CaptureRatio != 0 && l.CaptureRatio < 1) {
		return fmt.Errorf("core: %s: CaptureRatio %g below 1 (linear power ratio; 0 selects the default 10)", where, l.CaptureRatio)
	}
	if e.check != nil {
		return e.check(l, where)
	}
	return nil
}

// checkBER requires the frame length: without it the model degenerates
// to a silent no-op.
func checkBER(l LinkModelSpec, where string) error {
	if l.BER > 0 && l.FrameBits == 0 {
		return fmt.Errorf("core: %s: ber model needs FrameBits > 0 (the frame length the BER applies over; a TCP data frame is ~12000 bits)", where)
	}
	return nil
}

func init() {
	registerLinkModel(&linkModelEntry{
		name: "perfect",
		desc: "no impairment: frames within TxRange always decode (the default)",
		build: func(LinkModelSpec) (linkmodel.Model, error) {
			return linkmodel.Perfect{}, nil
		},
	})
	registerLinkModel(&linkModelEntry{
		name: "uniform", aliases: []string{"loss"},
		desc: "i.i.d. per-frame loss at LossRate (the random-loss regime TCP misreads as congestion)",
		build: func(l LinkModelSpec) (linkmodel.Model, error) {
			return linkmodel.UniformLoss{P: l.LossRate}, nil
		},
	})
	registerLinkModel(&linkModelEntry{
		name: "ber",
		desc: "independent bit errors: frames of FrameBits bits survive with (1-BER)^FrameBits",
		build: func(l LinkModelSpec) (linkmodel.Model, error) {
			return linkmodel.NewBERLoss(l.BER, l.FrameBits), nil
		},
		check: checkBER,
	})
	registerLinkModel(&linkModelEntry{
		name: "gilbert-elliott", aliases: []string{"ge"},
		desc: "bursty two-state loss (good/bad states with geometric sojourns)",
		build: func(l LinkModelSpec) (linkmodel.Model, error) {
			return linkmodel.GilbertElliott{
				PGoodBad: l.PGoodBad, PBadGood: l.PBadGood,
				LossGood: l.LossGood, LossBad: l.LossBad,
			}, nil
		},
	})
	registerLinkModel(&linkModelEntry{
		name: "distance",
		desc: "gray zone: loss ramps from 0 at TxRange to 1 at CSRange, with decoding extended to CSRange",
		build: func(LinkModelSpec) (linkmodel.Model, error) {
			return &linkmodel.DistanceLoss{}, nil
		},
	})
}
