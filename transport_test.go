package manetsim_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"manetsim"
)

// shortRun executes one small fixed-seed run of spec over a 2-hop chain.
func shortRun(t *testing.T, spec manetsim.TransportSpec) *manetsim.Result {
	t.Helper()
	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:     manetsim.Chain(2),
		Transport:    spec,
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
	})
	if err != nil {
		t.Fatalf("%s: %v", spec.Label(), err)
	}
	return res
}

// TestEveryRegisteredTransportRuns drives each registry entry end to end
// through the public API: every transport the registry lists — built-ins
// and the variants shipped through RegisterTransport — must carry a small
// chain run to completion.
func TestEveryRegisteredTransportRuns(t *testing.T) {
	infos := manetsim.Transports()
	if len(infos) < 7 {
		t.Fatalf("registry lists %d transports, want at least the 7 built-ins", len(infos))
	}
	for _, info := range infos {
		info := info
		t.Run(info.Name, func(t *testing.T) {
			t.Parallel()
			spec := manetsim.TransportSpec{Name: info.Name}
			if info.Name == "pacedudp" {
				spec.UDPGap = 40 * time.Millisecond
			}
			res := shortRun(t, spec)
			if res.Truncated || res.Delivered < 1100 {
				t.Errorf("%s delivered %d packets (truncated=%v)", info.Name, res.Delivered, res.Truncated)
			}
			if res.AggGoodput.Mean <= 0 {
				t.Errorf("%s: zero goodput", info.Name)
			}
		})
	}
}

// TestTransportAliasesResolve pins that aliases and the legacy Protocol
// constants select the same transports as canonical names.
func TestTransportAliasesResolve(t *testing.T) {
	byName := shortRun(t, manetsim.TransportSpec{Name: "vegas"})
	byProto := shortRun(t, manetsim.TransportSpec{Protocol: manetsim.Vegas})
	if byName.AggGoodput.Mean != byProto.AggGoodput.Mean || byName.Delivered != byProto.Delivered {
		t.Errorf("Name \"vegas\" and Protocol Vegas diverge: %.0f/%d vs %.0f/%d bit/s",
			byName.AggGoodput.Mean, byName.Delivered, byProto.AggGoodput.Mean, byProto.Delivered)
	}
	alias := shortRun(t, manetsim.TransportSpec{Name: "udp", UDPGap: 40 * time.Millisecond})
	canon := shortRun(t, manetsim.TransportSpec{Name: "pacedudp", UDPGap: 40 * time.Millisecond})
	if alias.AggGoodput.Mean != canon.AggGoodput.Mean {
		t.Errorf("alias udp and pacedudp diverge: %.0f vs %.0f bit/s", alias.AggGoodput.Mean, canon.AggGoodput.Mean)
	}
}

// TestUnknownTransportNameListsRegistry pins the actionable error for a
// typo'd name.
func TestUnknownTransportNameListsRegistry(t *testing.T) {
	_, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario:  manetsim.Chain(2),
		Transport: manetsim.TransportSpec{Name: "vegaas"},
	})
	if err == nil {
		t.Fatal("unknown transport name accepted")
	}
	for _, frag := range []string{`"vegaas"`, "vegas", "westwood", "pacing"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %s", err, frag)
		}
	}
}

// fixedWindowCC is the custom toy congestion control registered through
// the public API: a constant 4-packet window, go-back-N on timeout, no
// fast retransmit. It exercises exactly the strategy surface an external
// variant author sees — CCBase embedding plus engine calls.
type fixedWindowCC struct {
	manetsim.CCBase
	win float64
}

func (c *fixedWindowCC) OnAck(a manetsim.Ack) {
	e := c.Engine()
	if !a.NoEcho && !a.FromRetransmit {
		e.SampleRTT(e.Now() - a.Echo)
	}
	e.AdvanceAck(a.Seq)
	e.SetWindow(c.win)
}

func (c *fixedWindowCC) OnDupAck(manetsim.Ack) {}

func (c *fixedWindowCC) OnTimeout() {
	e := c.Engine()
	e.BackoffRTO()
	e.RestartRTOTimer()
}

var registerToyOnce sync.Once

// TestRegisterCustomTransport registers a toy congestion control through
// the public API and proves it is selectable by name everywhere a spec
// goes — including a campaign sweep next to the built-ins.
func TestRegisterCustomTransport(t *testing.T) {
	registerToyOnce.Do(func() {
		manetsim.RegisterTransport("toy-fixed4", func(manetsim.TransportSpec) (manetsim.CongestionControl, error) {
			return &fixedWindowCC{win: 4}, nil
		})
	})

	res := shortRun(t, manetsim.TransportSpec{Name: "toy-fixed4"})
	if res.Truncated || res.Delivered < 1100 {
		t.Fatalf("toy transport delivered %d packets (truncated=%v)", res.Delivered, res.Truncated)
	}
	// The fixed window must show up in the measured average: after the
	// first ACK the window sits at 4 for the whole run.
	if res.AvgWindow.Mean < 3 || res.AvgWindow.Mean > 4.01 {
		t.Errorf("average window %.2f, want ~4 (fixed)", res.AvgWindow.Mean)
	}

	found := false
	for _, info := range manetsim.Transports() {
		if info.Name == "toy-fixed4" {
			found = true
		}
	}
	if !found {
		t.Error("registered transport missing from Transports()")
	}

	// Selectable in a Sweep next to built-ins.
	c := manetsim.NewCampaign(manetsim.Scale{TotalPackets: 550, BatchPackets: 50, Seed: 1})
	cells, err := c.Sweep(context.Background(), manetsim.Sweep{
		Scenarios: []*manetsim.Scenario{manetsim.Chain(2)},
		Transports: []manetsim.TransportSpec{
			{Name: "toy-fixed4"},
			{Name: "westwood"},
			{Name: "pacing"},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 3 {
		t.Fatalf("sweep cells = %d, want 3", len(cells))
	}
	for _, cell := range cells {
		if cell.Goodput.Mean <= 0 {
			t.Errorf("%s: zero goodput in sweep", cell.Transport.Label())
		}
	}
}

// TestVegasBetaGammaParams pins that the Vegas β/γ thresholds — dead
// config fields before the Params redesign — are reachable from the
// public API and validated.
func TestVegasBetaGammaParams(t *testing.T) {
	// A wide α..β band (α=1, β=9) tolerates more queueing before backing
	// off than the paper's α=β point setting; both must run, and the
	// validation must reject an inverted band.
	band := shortRun(t, manetsim.TransportSpec{
		Name: "vegas", Alpha: 1, Params: manetsim.Params{Beta: 9, Gamma: 1},
	})
	if band.Truncated || band.AggGoodput.Mean <= 0 {
		t.Errorf("banded Vegas run failed: delivered=%d", band.Delivered)
	}

	_, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario: manetsim.Chain(2),
		Transport: manetsim.TransportSpec{
			Name: "vegas", Alpha: 4, Params: manetsim.Params{Beta: 2},
		},
	})
	if err == nil || !strings.Contains(err.Error(), "Beta 2 below Alpha 4") {
		t.Errorf("inverted Vegas band not rejected: %v", err)
	}
}

// TestPerFlowNamedTransportInheritance pins the IsZero-based inheritance:
// a per-flow spec carrying only a Name (Protocol == 0) must override the
// run default rather than silently inheriting it.
func TestPerFlowNamedTransportInheritance(t *testing.T) {
	scn := manetsim.Chain(2)
	scn.Flows[0].Transport = manetsim.TransportSpec{Name: "newreno"}
	res, err := manetsim.RunConfig(context.Background(), manetsim.Config{
		Scenario: scn,
		// The run default pins the window at 1 packet; the per-flow spec
		// (Name only, Protocol == 0) must replace it entirely, so the
		// measured average window exceeding 1 proves the override took.
		Transport:    manetsim.TransportSpec{Protocol: manetsim.Vegas, MaxWindow: 1},
		Seed:         1,
		TotalPackets: 1100,
		BatchPackets: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < 1100 {
		t.Errorf("delivered %d, want 1100", res.Delivered)
	}
	if res.AvgWindow.Mean <= 1.01 {
		t.Errorf("average window %.2f: per-flow Name-only spec inherited the default's MaxWindow=1 instead of overriding it",
			res.AvgWindow.Mean)
	}
}
