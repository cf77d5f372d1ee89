package core

import (
	"strings"
	"sync"
	"testing"
	"time"

	"manetsim/internal/fault"
	"manetsim/internal/pkt"
)

// faultChainConfig is the conformance scenario: a 4-hop chain (5 nodes at
// 200 m spacing) with one end-to-end flow, small measurement budget, and
// the given fault schedule.
func faultChainConfig(tspec TransportSpec, faults ...FaultSpec) Config {
	return Config{
		Scenario:     Chain(4),
		Transport:    tspec,
		Seed:         3,
		TotalPackets: 550,
		BatchPackets: 50,
		Faults:       faults,
	}
}

// conformanceFaults returns the three built-in fault kinds aimed at the
// middle of the 4-hop chain: each one severs the only path for 2 s.
func conformanceFaults() map[string]FaultSpec {
	return map[string]FaultSpec{
		"crash":     CrashFault(2, 2*time.Second, 2*time.Second),
		"blackout":  BlackoutFault(1, 2, 2*time.Second, 2*time.Second),
		"partition": PartitionFault(500, 2*time.Second, 2*time.Second),
	}
}

// TestFaultConformance is the fault conformance matrix: every registered
// transport runs under every built-in fault kind, fresh and on a reused
// arena, and each faulted run must be byte-identical between the two
// while still delivering its packet budget and reporting populated
// resilience metrics. This is the grid the -race CI job sweeps.
func TestFaultConformance(t *testing.T) {
	w := NewWorld()
	for _, spec := range worldSpecs() {
		for kind, fs := range conformanceFaults() {
			label := spec.Name + "/" + kind
			cfg := faultChainConfig(spec, fs)
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			arena, err := w.Run(cfg)
			if err != nil {
				t.Fatalf("%s (arena): %v", label, err)
			}
			if digest(t, fresh) != digest(t, arena) {
				t.Errorf("%s: arena run diverged from fresh run", label)
			}
			if fresh.Delivered < cfg.TotalPackets {
				t.Errorf("%s: delivered %d of %d packets", label, fresh.Delivered, cfg.TotalPackets)
			}
			rep := fresh.Faults
			if rep == nil {
				t.Fatalf("%s: faulted run carries no FaultReport", label)
			}
			if rep.Injected != 1 || len(rep.Outages) != 1 {
				t.Fatalf("%s: report counts %d injected, %d outages; want 1, 1", label, rep.Injected, len(rep.Outages))
			}
			o := rep.Outages[0]
			if !o.Recovered || !o.RecoveredAfterHeal {
				t.Errorf("%s: outage never recovered (%+v)", label, o)
			}
			if o.TimeToRecoverAfterHeal <= 0 {
				t.Errorf("%s: zero TimeToRecoverAfterHeal", label)
			}
			if rep.TimeInOutage != 2*time.Second {
				t.Errorf("%s: TimeInOutage %v, want 2s", label, rep.TimeInOutage)
			}
			// Every fault severs the chain's only path: goodput during
			// the outage must fall well below the healthy rate.
			if rep.GoodputDuringBps >= rep.GoodputOutsideBps {
				t.Errorf("%s: goodput during outage %.0f >= outside %.0f",
					label, rep.GoodputDuringBps, rep.GoodputOutsideBps)
			}
		}
	}
}

// TestFaultedRunsDeterministicPerSeed: same seed, same fault schedule —
// byte-identical; different seed diverges; and the fault schedule itself
// changes the outcome.
func TestFaultedRunsDeterministicPerSeed(t *testing.T) {
	tspec := TransportSpec{Protocol: ProtoNewReno}
	crash := CrashFault(2, 2*time.Second, 2*time.Second)
	a, err := Run(faultChainConfig(tspec, crash))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(faultChainConfig(tspec, crash))
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, a) != digest(t, b) {
		t.Error("same seed, same faults diverged")
	}
	other := faultChainConfig(tspec, crash)
	other.Seed = 4
	c, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, a) == digest(t, c) {
		t.Error("different seeds produced identical faulted runs")
	}
	clean, err := Run(faultChainConfig(tspec))
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, a) == digest(t, clean) {
		t.Error("crash fault changed nothing")
	}
}

// TestFaultFreeResultOmitsReport: runs without faults must not mention
// the subsystem in their JSON encoding — the identity behind cache keys
// and golden hashes predating it.
func TestFaultFreeResultOmitsReport(t *testing.T) {
	res, err := Run(faultChainConfig(TransportSpec{Protocol: ProtoNewReno}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults != nil {
		t.Fatal("fault-free run carries a FaultReport")
	}
	if d := digest(t, res); strings.Contains(d, "Fault") {
		t.Errorf("fault-free result encoding mentions faults: %s", d)
	}
}

// TestCrashEndpointNodes crashes the flow's source and destination nodes
// (not a relay): the sender must halt and resume with cold congestion
// state, the sink must survive with its reassembly state intact, and the
// run must stay byte-identical between fresh and arena builds.
func TestCrashEndpointNodes(t *testing.T) {
	w := NewWorld()
	for _, tc := range []struct {
		name string
		node int
	}{
		{"source", 0},
		{"sink", 4},
	} {
		cfg := faultChainConfig(TransportSpec{Protocol: ProtoVegas},
			CrashFault(tc.node, 2*time.Second, 1*time.Second))
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		arena, err := w.Run(cfg)
		if err != nil {
			t.Fatalf("%s (arena): %v", tc.name, err)
		}
		if digest(t, fresh) != digest(t, arena) {
			t.Errorf("%s: arena run diverged from fresh run", tc.name)
		}
		if fresh.Delivered < cfg.TotalPackets {
			t.Errorf("%s: delivered %d of %d packets", tc.name, fresh.Delivered, cfg.TotalPackets)
		}
		if !fresh.Faults.Outages[0].RecoveredAfterHeal {
			t.Errorf("%s: flow never recovered after the endpoint restarted", tc.name)
		}
	}
}

// TestCrashBeforeFlowStart crashes the source across its flow's start
// time: the application must launch when the node restarts, not during
// the outage and not never.
func TestCrashBeforeFlowStart(t *testing.T) {
	cfg := faultChainConfig(TransportSpec{Protocol: ProtoNewReno},
		CrashFault(0, 1*time.Millisecond, 3*time.Second))
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Delivered < cfg.TotalPackets {
		t.Fatalf("flow whose start fell into an outage never launched: delivered %d", res.Delivered)
	}
	if d := res.Faults.DeliveredDuring; d != 0 {
		t.Errorf("%d packets delivered while the source was down", d)
	}
}

// TestPermanentCrashTruncates: a relay crash that never heals starves
// the chain; the run must end at MaxSimTime with the outage marked
// unhealed.
func TestPermanentCrashTruncates(t *testing.T) {
	cfg := faultChainConfig(TransportSpec{Protocol: ProtoNewReno},
		CrashFault(2, 2*time.Second, 0))
	cfg.MaxSimTime = 20 * time.Second
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("run over a permanently severed chain was not truncated")
	}
	o := res.Faults.Outages[0]
	if o.End != 0 || o.RecoveredAfterHeal {
		t.Errorf("permanent outage reports a heal: %+v", o)
	}
	if res.Faults.TimeInOutage != res.SimTime-2*time.Second {
		t.Errorf("TimeInOutage %v, want %v", res.Faults.TimeInOutage, res.SimTime-2*time.Second)
	}
}

// TestFaultSpecValidation rejects misconfigured fault specs before any
// simulation state is built.
func TestFaultSpecValidation(t *testing.T) {
	base := func(f FaultSpec) Config {
		return faultChainConfig(TransportSpec{Protocol: ProtoNewReno}, f)
	}
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"unknown name", base(FaultSpec{Name: "meteor"}), "unknown fault"},
		{"node out of range", base(CrashFault(99, time.Second, 0)), "outside the scenario"},
		{"negative at", base(CrashFault(1, -time.Second, 0)), "negative At"},
		{"negative duration", base(FaultSpec{Name: "crash", Node: 1, At: time.Second, Duration: -time.Second}), "negative Duration"},
		{"self blackout", base(FaultSpec{Name: "blackout", From: 1, To: 1, At: time.Second}), "two endpoints"},
		{"blackout endpoint", base(BlackoutFault(0, 77, time.Second, time.Second)), "outside the scenario"},
		{"partition axis", base(FaultSpec{Name: "partition", Axis: "z", Cut: 100, At: time.Second}), "Axis"},
		{"partition nodes", base(FaultSpec{Name: "partition", NodesA: []int{0, 42}, At: time.Second}), "outside the scenario"},
	}
	for _, tc := range cases {
		_, err := Run(tc.cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.want)
		}
	}
}

// registerFlapOnce keeps TestRegisterFaultCustom repeatable under -count:
// the fault registry rejects a second registration of a name.
var registerFlapOnce sync.Once

// TestRegisterFaultCustom registers a custom injector and drives a run
// through it end to end.
func TestRegisterFaultCustom(t *testing.T) {
	registerFlapOnce.Do(func() {
		RegisterFault("testflap", func(f FaultSpec) (fault.Fault, error) {
			// A double-crash of the configured node: down at At for
			// Duration, and again one Duration later.
			return flapFault{node: f.Node, at: f.At, d: f.Duration}, nil
		})
	})
	cfg := faultChainConfig(TransportSpec{Protocol: ProtoNewReno},
		FaultSpec{Name: "testflap", Node: 2, At: 2 * time.Second, Duration: time.Second})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < cfg.TotalPackets {
		t.Fatalf("delivered %d of %d under the custom fault", res.Delivered, cfg.TotalPackets)
	}
	if res.Faults == nil || res.Faults.Injected != 1 {
		t.Fatal("custom fault left no report")
	}
}

type flapFault struct {
	node int
	at   time.Duration
	d    time.Duration
}

func (f flapFault) Schedule(env fault.Env) {
	fault.NodeCrash{Node: pkt.NodeID(f.node), At: f.at, Downtime: f.d}.Schedule(env)
	fault.NodeCrash{Node: pkt.NodeID(f.node), At: f.at + 2*f.d, Downtime: f.d}.Schedule(env)
}

// TestFaultLabels pins the human-readable spec rendering used by outage
// reports and sweep listings.
func TestFaultLabels(t *testing.T) {
	cases := []struct {
		spec FaultSpec
		want string
	}{
		{CrashFault(3, 30*time.Second, 5*time.Second), "crash(node=3)@30s+5s"},
		{CrashFault(1, time.Second, 0), "crash(node=1)@1s"},
		{BlackoutFault(0, 1, 2*time.Second, time.Second), "blackout(0<->1)@2s+1s"},
		{FaultSpec{Name: "blackout", From: 2, To: 3, At: time.Second}, "blackout(2->3)@1s"},
		{PartitionFault(500, 10*time.Second, 2*time.Second), "partition(x<500)@10s+2s"},
		{FaultSpec{Name: "partition", NodesA: []int{0, 1}, At: time.Second}, "partition(|A|=2)@1s"},
	}
	for _, tc := range cases {
		if got := tc.spec.Label(); got != tc.want {
			t.Errorf("Label() = %q, want %q", got, tc.want)
		}
	}
}

// TestOverlappingCrashesNest crashes the relay of a 2-hop chain twice,
// over [3 s, 5 s) and [4 s, 8 s): the relay stays down until the last
// restore, so nothing is delivered before 8 s and no packet crosses the
// chain while either crash is in force.
func TestOverlappingCrashesNest(t *testing.T) {
	cfg := Config{
		Scenario:  Chain(2),
		Transport: TransportSpec{Protocol: ProtoNewReno},
		Faults: []FaultSpec{
			CrashFault(1, 3*time.Second, 2*time.Second),
			CrashFault(1, 4*time.Second, 4*time.Second),
		},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Faults
	if rep.TimeInOutage != 5*time.Second {
		t.Errorf("TimeInOutage %v, want 5s", rep.TimeInOutage)
	}
	if rep.DeliveredDuring != 0 {
		t.Errorf("%d packets delivered while the relay was down", rep.DeliveredDuring)
	}
	second := rep.Outages[1]
	if !second.Recovered || second.Start+second.TimeToRecover < 8*time.Second {
		t.Errorf("first delivery after the second crash at %v, want >= 8s (%+v)",
			second.Start+second.TimeToRecover, second)
	}
	if !res.Faults.Outages[0].RecoveredAfterHeal || res.Delivered < WithDefaults(cfg).TotalPackets {
		t.Errorf("chain never recovered after the last restore: delivered %d", res.Delivered)
	}
}
