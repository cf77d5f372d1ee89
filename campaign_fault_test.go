package manetsim

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"manetsim/internal/core"
)

// TestSweepFaultsAxis sweeps a fault-free baseline against a crash
// schedule: one cell per schedule, distinct keys, the baseline cell key
// byte-identical to its pre-fault encoding, and resilience metrics only
// on the faulted replicates.
func TestSweepFaultsAxis(t *testing.T) {
	crash := []FaultSpec{CrashFault(1, 2*time.Second, time.Second)}
	sw := Sweep{
		Scenarios:  []*Scenario{Chain(3)},
		Transports: []TransportSpec{{Protocol: NewReno}},
		Faults:     [][]FaultSpec{nil, crash},
		Seeds:      []int64{1, 2},
		Base:       Config{TotalPackets: 550, BatchPackets: 50},
	}
	if got, err := sw.Size(); got != 4 || err != nil {
		t.Fatalf("Size = %d, %v, want 4 (2 schedules x 2 seeds)", got, err)
	}
	c := NewCampaign(BenchScale)
	cells, err := c.Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2 (one per fault schedule)", len(cells))
	}
	baseline, faulted := cells[0], cells[1]
	if len(baseline.Faults) != 0 {
		baseline, faulted = faulted, baseline
	}
	if strings.Contains(string(baseline.Key), "Fault") {
		t.Errorf("fault-free cell key mentions faults: %s", baseline.Key)
	}
	if want := NewCellKey(sw.Scenarios[0], sw.Transports[0], 0, LinkModelSpec{}, nil, sw.Seeds); baseline.Key != want {
		t.Errorf("fault-free cell key drifted:\n got %s\nwant %s", baseline.Key, want)
	}
	if baseline.Key == faulted.Key {
		t.Fatal("fault schedule did not change the cell key")
	}
	for _, r := range baseline.Runs {
		if r.Faults != nil {
			t.Error("fault-free replicate carries a FaultReport")
		}
	}
	for _, r := range faulted.Runs {
		if r.Faults == nil || r.Faults.Injected != 1 {
			t.Error("faulted replicate missing its FaultReport")
		}
	}
	// The during-vs-outside goodput contrast is asserted per run (see
	// internal/core's conformance matrix); at this batch budget the
	// cell-level means only need to be sane.
	if faulted.Goodput.Mean <= 0 || baseline.Goodput.Mean <= 0 {
		t.Errorf("zero goodput: faulted %.0f, baseline %.0f",
			faulted.Goodput.Mean, baseline.Goodput.Mean)
	}
}

// TestSweepStoreResumeWithFaults: faulted sweeps are resumable like any
// other — a fresh campaign over the same store executes zero runs and
// reloads byte-identical results.
func TestSweepStoreResumeWithFaults(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	sw := Sweep{
		Scenarios:  []*Scenario{Chain(3)},
		Transports: []TransportSpec{{Protocol: NewReno}, {Protocol: Vegas, Alpha: 2}},
		Faults:     [][]FaultSpec{{CrashFault(1, 2*time.Second, time.Second)}},
		Seeds:      []int64{1, 2},
		Base:       Config{TotalPackets: 550, BatchPackets: 50},
	}

	first := NewCampaign(BenchScale, WithStore(dir))
	cells1, err := first.Sweep(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Executed(); got != 4 {
		t.Fatalf("first sweep executed %d runs, want 4", got)
	}

	resumed := NewCampaign(BenchScale, WithStore(dir))
	cells2, err := resumed.Sweep(ctx, sw)
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Executed(); got != 0 {
		t.Fatalf("resumed faulted sweep executed %d runs, want 0", got)
	}
	for i := range cells1 {
		a, _ := json.Marshal(cells1[i].Runs)
		b, _ := json.Marshal(cells2[i].Runs)
		if string(a) != string(b) {
			t.Errorf("cell %d: store-loaded faulted runs differ from the originals", i)
		}
	}
}

// panicCC is a registered transport that panics as soon as its transfer
// starts — the worker-isolation probe. The panic is armed by the spec
// (Alpha == 42), so the registry-enumeration tests, which run every
// listed transport with a zero spec, get a working fixed-window variant
// instead.
type panicCC struct {
	CCBase
	armed bool
}

func (p *panicCC) OnStart() {
	if p.armed {
		panic("chaos monkey ate the congestion window")
	}
	p.Engine().SetWindow(4)
}

func (p *panicCC) OnAck(a Ack) {
	e := p.Engine()
	e.AdvanceAck(a.Seq)
	if !a.NoEcho {
		e.SampleRTT(e.Now() - a.Echo)
	}
}

func (p *panicCC) OnDupAck(Ack) {}

func (p *panicCC) OnTimeout() {
	e := p.Engine()
	e.BackoffRTO()
	e.RestartRTOTimer()
}

func panicCCFactory(spec TransportSpec) (CongestionControl, error) {
	return &panicCC{armed: spec.Alpha == 42}, nil
}

// registerPanicOnce registers the panic tests' transports once, so the
// tests stay repeatable under -count: the registry rejects a second
// registration of a name.
var registerPanicOnce sync.Once

func registerPanicTransports() {
	registerPanicOnce.Do(func() {
		RegisterTransport("panic-onstart", panicCCFactory)
		RegisterTransport("panic-onstart-2", panicCCFactory)
	})
}

// slotWorlds returns the Worlds the campaign's worker slots hold, leaving
// them in place. No run may be in flight.
func slotWorlds(c *Campaign) map[*core.World]bool {
	held := make(map[*core.World]bool, cap(c.slots))
	for i := 0; i < cap(c.slots); i++ {
		w := <-c.slots
		held[w] = true
		c.slots <- w
	}
	return held
}

// TestCampaignPanicIsolation: a panicking transport fails only its own
// run — with the panic text in the error — and leaves the campaign's
// worker slots and cache fully usable. The World the panicking run used
// may hold corrupt state, so its slot must get a fresh one: with one
// worker, the only slot's World changes across the panic.
func TestCampaignPanicIsolation(t *testing.T) {
	registerPanicTransports()
	bad := benchChainCfg(2)
	bad.Transport = TransportSpec{Name: "panic-onstart", Alpha: 42}
	good := benchChainCfg(2)

	for _, tc := range []struct {
		name string
		c    *Campaign
	}{
		{"default-workers", NewCampaign(BenchScale)},
		{"one-worker", NewCampaign(BenchScale, WithWorkers(1))},
	} {
		ctx := context.Background()
		if err := tc.c.Ready(); err != nil {
			t.Fatal(err)
		}
		before := slotWorlds(tc.c)
		_, err := tc.c.Run(ctx, bad)
		if err == nil || !strings.Contains(err.Error(), "simulation panicked") ||
			!strings.Contains(err.Error(), "chaos monkey") {
			t.Fatalf("%s: panicking run returned %v, want a recovered panic error", tc.name, err)
		}
		replaced := 0
		for w := range slotWorlds(tc.c) {
			if !before[w] {
				replaced++
			}
		}
		if replaced != 1 {
			t.Fatalf("%s: %d slot Worlds replaced after a panic, want 1 (the panicking run's)", tc.name, replaced)
		}
		// The same campaign must still run clean configs (single-flight
		// cache and worker slots survive the panic)...
		res, err := tc.c.Run(ctx, good)
		if err != nil || res.Delivered == 0 {
			t.Fatalf("%s: campaign unusable after a panic: %v", tc.name, err)
		}
		// ...and batches of them in parallel.
		results, err := tc.c.RunAll(ctx, []Config{good, benchChainCfg(3)})
		if err != nil || len(results) != 2 {
			t.Fatalf("%s: parallel batch after a panic: %v", tc.name, err)
		}
	}
}

// TestCampaignPanicDoesNotPoisonCache: after a panicking run, re-running
// the same config reports the failure again rather than hanging on the
// single-flight entry.
func TestCampaignPanicDoesNotPoisonCache(t *testing.T) {
	registerPanicTransports()
	bad := benchChainCfg(2)
	bad.Transport = TransportSpec{Name: "panic-onstart-2", Alpha: 42}
	c := NewCampaign(BenchScale)
	for i := 0; i < 2; i++ {
		_, err := c.Run(context.Background(), bad)
		if err == nil || !strings.Contains(err.Error(), "simulation panicked") {
			t.Fatalf("attempt %d: got %v, want the recovered panic error", i, err)
		}
	}
}
