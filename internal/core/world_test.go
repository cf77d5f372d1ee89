package core

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"
)

// worldTestConfig builds a small-budget config for arena determinism
// checks: enough packets to close several batches, few enough to keep the
// full transport x scenario x seed matrix fast.
func worldTestConfig(scn *Scenario, tspec TransportSpec, seed int64) Config {
	return Config{
		Scenario:     scn,
		Transport:    tspec,
		Seed:         seed,
		TotalPackets: 220,
		BatchPackets: 20,
	}
}

// digest renders a Result to its canonical JSON byte form — the same
// encoding the golden figure digests hash — so "byte-identical" is checked
// literally.
func digest(t *testing.T, res *Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal result: %v", err)
	}
	return string(b)
}

// worldSpecs returns one usable TransportSpec per registered transport
// (paced UDP needs its gap filled in).
func worldSpecs() []TransportSpec {
	var specs []TransportSpec
	for _, info := range Transports() {
		spec := TransportSpec{Name: info.Name}
		if info.Name == "pacedudp" {
			spec.UDPGap = 20 * time.Millisecond
		}
		specs = append(specs, spec)
	}
	return specs
}

// TestWorldByteIdenticalAllTransports asserts that for every registered
// transport, runs on a single reused World are byte-identical to fresh
// builds, across seeds, static and mobile scenarios, and both routing
// substrates. One World serves the whole interleaved sequence, so the test
// also exercises shape transitions (node counts, routing, placement
// changes) between consecutive reuses.
func TestWorldByteIdenticalAllTransports(t *testing.T) {
	scenarios := []func() *Scenario{
		func() *Scenario { return Chain(3) },
		func() *Scenario { return Chain(2).WithRouting(RoutingStatic) },
		func() *Scenario { return RandomField(12, 800, 800, 2) },
		func() *Scenario {
			return Chain(3).WithMobility(MobilitySpec{
				Kind:     MobilityRandomWaypoint,
				MaxSpeed: 5,
				Pause:    time.Second,
			})
		},
	}
	w := NewWorld()
	for _, spec := range worldSpecs() {
		for si, mk := range scenarios {
			if spec.Name == "pacedudp" && si == 3 {
				// Keep the mobile matrix to a spot check; UDP's mobile
				// behavior is covered by the AODV static/random cases.
				continue
			}
			for _, seed := range []int64{1, 7} {
				name := fmt.Sprintf("%s/scn%d/seed%d", spec.Name, si, seed)
				cfg := worldTestConfig(mk(), spec, seed)
				fresh, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s: fresh run: %v", name, err)
				}
				reused, err := w.Run(cfg)
				if err != nil {
					t.Fatalf("%s: arena run: %v", name, err)
				}
				if df, dr := digest(t, fresh), digest(t, reused); df != dr {
					t.Errorf("%s: arena result differs from fresh\nfresh:  %.200s\narena:  %.200s", name, df, dr)
				}
			}
		}
	}
}

// TestWorldRepeatedSameConfig asserts back-to-back reuse of one config is
// stable (the common Campaign replicate pattern) and that distinct seeds
// still produce distinct results through the arena.
func TestWorldRepeatedSameConfig(t *testing.T) {
	w := NewWorld()
	cfg := worldTestConfig(Chain(3), TransportSpec{Name: "vegas"}, 3)
	first, err := w.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := w.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, first) != digest(t, second) {
		t.Error("same config twice on one arena: results differ")
	}
	other, err := w.Run(worldTestConfig(Chain(3), TransportSpec{Name: "vegas"}, 4))
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, first) == digest(t, other) {
		t.Error("different seeds produced identical results (arena state leaking?)")
	}
}

// TestWorldErrorDoesNotPoison asserts a failed build drops the arena
// cleanly: the next valid run still matches a fresh one.
func TestWorldErrorDoesNotPoison(t *testing.T) {
	w := NewWorld()
	good := worldTestConfig(Chain(3), TransportSpec{Name: "newreno"}, 5)
	if _, err := w.Run(good); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Transport = TransportSpec{Name: "no-such-transport"}
	if _, err := w.Run(bad); err == nil {
		t.Fatal("invalid transport accepted")
	}
	fresh, err := Run(good)
	if err != nil {
		t.Fatal(err)
	}
	again, err := w.Run(good)
	if err != nil {
		t.Fatalf("arena run after error: %v", err)
	}
	if digest(t, fresh) != digest(t, again) {
		t.Error("arena result differs from fresh after an intervening build error")
	}
}

// lineScenario places four static-routed nodes on a line at the given x
// coordinates (a permutation of 0, 200, 400, 600) with one flow from node 0
// to node 3, so the node order decides the route.
func lineScenario(xs ...float64) *Scenario {
	scn := NewScenario("line").WithRouting(RoutingStatic)
	for _, x := range xs {
		scn.AddNode(x, 0)
	}
	return scn.AddFlow(0, 3)
}

// TestWorldAdjacencyFollowsPlacement: the arena computes the static-route
// adjacency once per placement — a repeated placement reuses it and the
// routers built from it, a different one (same node count, so every other
// layer is rewound in place) rebuilds both — and an AODV run in between
// must not leave routes of the placement before it behind.
func TestWorldAdjacencyFollowsPlacement(t *testing.T) {
	tspec := TransportSpec{Name: "newreno"}
	a, b := lineScenario(0, 200, 400, 600), lineScenario(0, 400, 200, 600)
	w := NewWorld()
	run := func(scn *Scenario, seed int64) {
		t.Helper()
		cfg := worldTestConfig(scn, tspec, seed)
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arena, err := w.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if digest(t, fresh) != digest(t, arena) {
			t.Errorf("%s seed %d: arena result differs from fresh", scn.Name, seed)
		}
	}
	run(a, 1)
	adj, router := w.s.adj, w.s.statics[0]
	if got := router.NextHop(3); got != 1 {
		t.Fatalf("placement a: next hop 0->3 = %d, want 1", got)
	}
	run(a, 2)
	if &w.s.adj[0] != &adj[0] || w.s.statics[0] != router {
		t.Error("same placement: adjacency or routers rebuilt")
	}
	run(b, 3)
	if &w.s.adj[0] == &adj[0] || w.s.statics[0] == router {
		t.Error("different placement: adjacency or routers reused")
	}
	if got := w.s.statics[0].NextHop(3); got != 2 {
		t.Errorf("placement b: next hop 0->3 = %d, want 2", got)
	}
	run(a.Clone().WithRouting(RoutingAODV), 4)
	if w.s.adj != nil {
		t.Error("adjacency kept across an AODV run")
	}
	run(a, 5)
	if got := w.s.statics[0].NextHop(3); got != 1 {
		t.Errorf("placement a after AODV on a: next hop 0->3 = %d, want 1 (routes of placement b reused)", got)
	}
}

// TestWorldResetAllocatesLessThanOncePerNode pins what arena reuse is for on
// a wide world: rewinding 210 stacks for a short replicate allocates for the
// run (flows, batches, the result), never per node — a closure or buffer
// re-made for every node and reset shows up as 210 allocations at once.
func TestWorldResetAllocatesLessThanOncePerNode(t *testing.T) {
	scn := NewScenario("grid-15x14").WithRouting(RoutingStatic)
	for row := 0; row < 14; row++ {
		for col := 0; col < 15; col++ {
			scn.AddNode(float64(col)*200, float64(row)*200)
		}
	}
	scn.AddFlow(0, 2)
	for _, spec := range []TransportSpec{{Name: "vegas"}, {Name: "newreno"}} {
		w := NewWorld()
		seed := int64(0)
		run := func() {
			seed++
			cfg := Config{Scenario: scn, Transport: spec, Seed: seed, TotalPackets: 110, BatchPackets: 10}
			if _, err := w.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if allocs := testing.AllocsPerRun(10, run); allocs >= float64(scn.NumNodes()) {
			t.Errorf("%s: a reset run on %d nodes allocates %.0f times", spec.Name, scn.NumNodes(), allocs)
		}
	}
}

// wideGrid is the 15×14 static-routed grid of the replicate sweeps, with
// one flow over two hops.
func wideGrid() *Scenario {
	scn := NewScenario("grid-15x14").WithRouting(RoutingStatic)
	for row := 0; row < 14; row++ {
		for col := 0; col < 15; col++ {
			scn.AddNode(float64(col)*200, float64(row)*200)
		}
	}
	return scn.AddFlow(0, 2)
}

// TestWorldResetRunAllocationBound pins what the run arenas reclaim: a run
// stopped at its packet budget leaves packets, frames and transmission
// records in flight, and the next run's Reset takes them back instead of
// allocating them again, while the Result is built from a few per-run
// arrays. What remains is the run's own output (the Result, its flows and
// batch storage) and the per-run scenario materialization.
func TestWorldResetRunAllocationBound(t *testing.T) {
	const bound = 25
	scn := wideGrid()
	for _, spec := range []TransportSpec{{Name: "vegas"}, {Name: "newreno"}} {
		w := NewWorld()
		seed := int64(0)
		run := func() {
			seed++
			cfg := Config{Scenario: scn, Transport: spec, Seed: seed, TotalPackets: 110, BatchPackets: 10}
			if _, err := w.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(10, run)
		t.Logf("%s: %.1f allocs per reset run", spec.Name, allocs)
		if allocs > bound {
			t.Errorf("%s: a reset run on %d nodes allocates %.1f times, want at most %d", spec.Name, scn.NumNodes(), allocs, bound)
		}
	}
}

// TestResultOutlivesWorldReuse checks that a Result owns what it reports:
// its batches are carved from arrays its World never hands to a later run,
// so running a different config — with a different flow count — on the
// same World leaves the earlier Result's encoding unchanged.
func TestResultOutlivesWorldReuse(t *testing.T) {
	w := NewWorld()
	first, err := w.Run(worldTestConfig(Chain(3), TransportSpec{Name: "vegas"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := digest(t, first)
	two := Chain(3).AddFlow(3, 0)
	for seed := int64(2); seed < 5; seed++ {
		if _, err := w.Run(worldTestConfig(two, TransportSpec{Name: "newreno"}, seed)); err != nil {
			t.Fatal(err)
		}
	}
	if after := digest(t, first); after != before {
		t.Errorf("Result changed after its World ran again:\nbefore %s\nafter  %s", before, after)
	}
}
