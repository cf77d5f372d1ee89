package core

import (
	"strings"
	"testing"
	"time"
)

// wantError runs the config and asserts the error mentions every fragment,
// so each validation path keeps a distinct, actionable message.
func wantError(t *testing.T, cfg Config, fragments ...string) {
	t.Helper()
	_, err := Run(cfg)
	if err == nil {
		t.Fatalf("config accepted, want error mentioning %q", fragments)
	}
	for _, f := range fragments {
		if !strings.Contains(err.Error(), f) {
			t.Errorf("error %q does not mention %q", err, f)
		}
	}
}

func validChain() Config {
	return Config{
		Scenario:     Chain(2),
		Transport:    TransportSpec{Name: "vegas"},
		TotalPackets: 550,
		BatchPackets: 50,
	}
}

func TestValidateNilScenario(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = nil
	wantError(t, cfg, "Config.Scenario is nil")
}

func TestValidateEmptyScenario(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = NewScenario("empty")
	wantError(t, cfg, "no nodes", "AddNode")
}

func TestValidateScenarioWithoutFlows(t *testing.T) {
	cfg := validChain()
	scn := NewScenario("flowless")
	scn.AddNode(0, 0)
	scn.AddNode(200, 0)
	cfg.Scenario = scn
	wantError(t, cfg, "no flows", "AddFlow")
}

func TestValidateFlowReferencesNonexistentNode(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = Chain(2).WithFlows(Flow{Src: 0, Dst: 99})
	wantError(t, cfg, "references node", "3 nodes", "IDs 0..2")
}

func TestValidateSelfFlow(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = Chain(2).WithFlows(Flow{Src: 1, Dst: 1})
	wantError(t, cfg, "to itself")
}

func TestValidateNegativeFlowStart(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = Chain(2).WithFlows(Flow{Src: 0, Dst: 2, Start: -time.Second})
	wantError(t, cfg, "negative start time")
}

func TestValidatePacedUDPWithoutGap(t *testing.T) {
	cfg := validChain()
	cfg.Transport = TransportSpec{Name: "pacedudp"}
	wantError(t, cfg, "paced UDP needs UDPGap > 0")
}

func TestValidatePerFlowPacedUDPWithoutGap(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = Chain(2).WithFlows(Flow{
		Src: 0, Dst: 2, Transport: TransportSpec{Name: "pacedudp"},
	})
	wantError(t, cfg, "flow 0", "paced UDP needs UDPGap > 0")
}

func TestValidateNegativeAlpha(t *testing.T) {
	cfg := validChain()
	cfg.Transport = TransportSpec{Name: "vegas", Alpha: -1}
	wantError(t, cfg, "negative Vegas Alpha -1")
}

func TestValidateNegativeMaxWindow(t *testing.T) {
	cfg := validChain()
	cfg.Transport = TransportSpec{Name: "newreno", MaxWindow: -3}
	wantError(t, cfg, "negative MaxWindow -3")
}

func TestValidateNegativeUDPGap(t *testing.T) {
	cfg := validChain()
	cfg.Transport = TransportSpec{Name: "pacedudp", UDPGap: -time.Millisecond}
	wantError(t, cfg, "negative UDPGap")
}

func TestValidateUnsetProtocol(t *testing.T) {
	cfg := validChain()
	cfg.Transport = TransportSpec{}
	wantError(t, cfg, "no transport set")
}

func TestValidateUnknownProtocol(t *testing.T) {
	cfg := validChain()
	cfg.Transport = TransportSpec{Name: "bogus"}
	wantError(t, cfg, `unknown transport "bogus"`)
}

func TestValidateExclusiveAckPolicies(t *testing.T) {
	cfg := validChain()
	cfg.Transport = TransportSpec{Name: "newreno", AckThinning: true, DelayedAck: true}
	wantError(t, cfg, "AckThinning and DelayedAck are mutually exclusive")
}

func TestValidateNegativeBudget(t *testing.T) {
	cfg := validChain()
	cfg.TotalPackets = -1
	wantError(t, cfg, "negative measurement budget")

	// Unchecked, a negative warm-up count would slice the batches at
	// [-1:] and panic, and a negative time bound would run nothing and
	// return an empty, truncated result.
	cfg = validChain()
	cfg.WarmupBatches = -1
	wantError(t, cfg, "negative WarmupBatches -1")

	cfg = validChain()
	cfg.MaxSimTime = -time.Second
	wantError(t, cfg, "negative MaxSimTime -1s")
}

// TestValidateNoMeasuredBatch: a budget that the warm-up batches use up
// would close no measured batch and report goodput 0 as if measured.
func TestValidateNoMeasuredBatch(t *testing.T) {
	cfg := validChain()
	cfg.TotalPackets, cfg.BatchPackets = 1100, 10000
	wantError(t, cfg, "BatchPackets 10000", "WarmupBatches 1", "TotalPackets 1100")

	cfg = validChain()
	cfg.WarmupBatches = 3
	cfg.TotalPackets, cfg.BatchPackets = 550, 150
	wantError(t, cfg, "BatchPackets 150", "WarmupBatches 3", "TotalPackets 550")

	// One warm-up batch and one measured batch exactly fill the budget.
	cfg = validChain()
	cfg.TotalPackets, cfg.BatchPackets = 550, 275
	if _, err := Run(cfg); err != nil {
		t.Errorf("BatchPackets 275 x 2 = TotalPackets 550 rejected: %v", err)
	}
}

// TestValidateUpdateIntervalFloor: a sub-millisecond position epoch
// spends the run recomputing neighbors for centimeter moves; 1 ms is the
// floor and still runs.
func TestValidateUpdateIntervalFloor(t *testing.T) {
	cfg := validChain()
	cfg.Scenario.Mobility.UpdateInterval = -time.Millisecond
	wantError(t, cfg, "Mobility.UpdateInterval -1ms", "1ms floor")
	cfg.Scenario.Mobility.UpdateInterval = 999 * time.Microsecond
	wantError(t, cfg, "Mobility.UpdateInterval 999µs", "1ms floor")

	cfg.TotalPackets, cfg.BatchPackets = 110, 10
	cfg.MaxSimTime = time.Minute
	cfg.Scenario.WithMobility(MobilitySpec{
		Kind:             MobilityRandomWaypoint,
		MaxSpeed:         5,
		PinFlowEndpoints: true,
		UpdateInterval:   time.Millisecond,
	})
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("waypoint chain at the 1ms floor rejected: %v", err)
	}
	if res.Delivered < 110 {
		t.Errorf("waypoint chain at the 1ms floor delivered %d packets, want 110", res.Delivered)
	}
}

func TestValidateRandomGenerator(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = RandomField(1, 1000, 1000, 2)
	wantError(t, cfg, "at least 2 nodes")

	cfg.Scenario = RandomField(10, 0, 1000, 2)
	wantError(t, cfg, "positive field")

	cfg.Scenario = RandomField(10, 1000, 1000, 0)
	wantError(t, cfg, "FlowCount >= 1")

	cfg.Scenario = &Scenario{Generator: &GeneratorSpec{Kind: "hexlattice", Nodes: 10, Width: 1, Height: 1, FlowCount: 1}}
	wantError(t, cfg, `unknown scenario generator kind "hexlattice"`)
}

// TestValidateFlowCountAboveNodePairs: generated flows are distinct
// (src, dst) pairs, so a FlowCount above Nodes·(Nodes−1) is rejected
// instead of drawing pairs forever; exactly that many still runs.
func TestValidateFlowCountAboveNodePairs(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = RandomField(2, 100, 100, 3)
	wantError(t, cfg, "FlowCount 3", "2 nodes have only 2 (src, dst) pairs")

	cfg.Scenario = RandomField(2, 100, 100, 2)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("FlowCount 2 over 2 nodes: %v", err)
	}
	if len(res.Flows) != 2 || res.Delivered == 0 {
		t.Errorf("FlowCount 2 over 2 nodes: %d flows, %d delivered", len(res.Flows), res.Delivered)
	}
}

// TestRandomFieldTooSparseErrors: random placement gives up on a field no
// placement of its nodes can connect, with an error naming the field,
// rather than resampling forever inside build.
func TestRandomFieldTooSparseErrors(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = RandomField(2, 1e9, 1e9, 1)
	wantError(t, cfg, "too sparse", "1e+09x1e+09 m field", `scenario "random-2"`)
}

func TestValidateNegativeBandwidth(t *testing.T) {
	cfg := validChain()
	cfg.Bandwidth = -1
	wantError(t, cfg, "negative Bandwidth -1 bit/s")
}

// TestValidateGeneratorFlowAgainstGeneratorNodes pins that explicit flows
// over a generator scenario are checked against the generated node count.
func TestValidateGeneratorFlowAgainstGeneratorNodes(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = RandomField(10, 1000, 1000, 2).WithFlows(Flow{Src: 0, Dst: 15})
	wantError(t, cfg, "references node", "10 nodes")
}

func TestValidatePerFlowOptionsWithoutProtocol(t *testing.T) {
	cfg := validChain()
	cfg.Scenario = Chain(2).WithFlows(Flow{
		Src: 0, Dst: 2, Transport: TransportSpec{AckThinning: true},
	})
	wantError(t, cfg, "flow 0 sets transport options without a Name")
}
