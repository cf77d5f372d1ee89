package exp

import (
	"context"
	"slices"
	"sort"
	"strings"
	"testing"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

func TestTable2MatchesPaper(t *testing.T) {
	f, err := Table2(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"2": 29, "5.5": 12, "11": 8}
	pts := f.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for _, p := range pts {
		if want[p.X] != p.Y {
			t.Errorf("delay at %s Mbit/s = %v ms, want %v (paper Table 2)", p.X, p.Y, want[p.X])
		}
	}
}

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	// Every evaluated table/figure of the paper plus the extension
	// experiments, nothing more.
	want := []string{
		"table2", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig16",
		"fig17", "table3", "fig18", "fig19", "table4", "energy", "ablation",
		"tcpvariants", "transports", "ccextensions", "coexist", "lossy",
		"chaos", "latency", "optwindow", "mobility",
	}
	sort.Strings(want)
	if got := IDs(); !slices.Equal(got, want) {
		t.Errorf("IDs() = %v\nwant %v", got, want)
	}
	for _, id := range want {
		if _, ok := Lookup(id); !ok {
			t.Errorf("Lookup(%q) failed", id)
		}
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup accepted unknown id")
	}
}

func TestHarnessRunAllPreservesOrder(t *testing.T) {
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	cfgs := []core.Config{
		chainCfg(2, phy.Rate2Mbps, core.TransportSpec{Name: "vegas", Alpha: 2}),
		chainCfg(3, phy.Rate2Mbps, core.TransportSpec{Name: "vegas", Alpha: 2}),
	}
	results, err := camp.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(results[0].Flows) != 1 || results[0].Flows[0].Dst != 2 {
		t.Errorf("result 0 is not the 2-hop run: flows=%v", results[0].Flows)
	}
	if results[1].Flows[0].Dst != 3 {
		t.Errorf("result 1 is not the 3-hop run: flows=%v", results[1].Flows)
	}
}

func TestFigureRenderAndCSV(t *testing.T) {
	f := &Figure{
		ID: "test", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "a", Points: []Point{{X: "1", Y: 10}, {X: "2", Y: 20}}},
			{Name: "b", Points: []Point{{X: "1", Y: 0.5, CI: 0.1}}},
		},
		Notes: []string{"hello"},
	}
	var sb strings.Builder
	if err := f.Render(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"demo", "a", "b", "10", "±0.1", "hello", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	sb.Reset()
	if err := f.CSV(&sb); err != nil {
		t.Fatal(err)
	}
	csv := sb.String()
	if !strings.Contains(csv, `"a","1",10,0`) || !strings.Contains(csv, `"b","1",0.5,0.1`) {
		t.Errorf("csv output wrong:\n%s", csv)
	}
}

func TestOptimalUDPGapShortVsLongChain(t *testing.T) {
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	short, err := camp.OptimalUDPGap(context.Background(), 2, phy.Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	long, err := camp.OptimalUDPGap(context.Background(), 8, phy.Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if short <= 0 || long <= 0 {
		t.Fatalf("gaps = %v, %v; want positive", short, long)
	}
	// A repeated search is served from the campaign cache.
	again, err := camp.OptimalUDPGap(context.Background(), 8, phy.Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if again != long {
		t.Error("repeated gap search disagrees with the first")
	}
}

func TestFig10FindsInteriorOptimum(t *testing.T) {
	if testing.Short() {
		t.Skip("fig10 sweep is slow")
	}
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	f, err := Fig10(camp)
	if err != nil {
		t.Fatal(err)
	}
	pts := f.Series[0].Points
	if len(pts) != 9 {
		t.Fatalf("sweep points = %d, want 9 (28..44 ms step 2)", len(pts))
	}
	// The paper's Figure 10 shape: goodput collapses on the fast side and
	// degrades gently on the slow side, so the best point is interior or
	// near 36ms, and the fastest gap must be clearly worse than the best.
	best, bestIdx := -1.0, 0
	for i, p := range pts {
		if p.Y > best {
			best, bestIdx = p.Y, i
		}
	}
	if bestIdx == 0 {
		t.Errorf("optimum at the fastest gap (28ms); cliff missing: %+v", pts)
	}
	if pts[0].Y >= best {
		t.Errorf("28ms goodput %.1f >= optimum %.1f", pts[0].Y, best)
	}
}

func TestMobilityRunnerShape(t *testing.T) {
	if testing.Short() {
		t.Skip("mobility sweep is slow")
	}
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	f, err := Mobility(camp)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Series) != 4 {
		t.Fatalf("series = %d, want 4 (Vegas/NewReno x plain/thin)", len(f.Series))
	}
	for _, s := range f.Series {
		if len(s.Points) != len(mobilitySpeeds) {
			t.Fatalf("series %q has %d points, want %d", s.Name, len(s.Points), len(mobilitySpeeds))
		}
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("series %q at %s m/s: goodput %.1f, want > 0", s.Name, p.X, p.Y)
			}
		}
	}
	if len(f.Notes) != 4*len(mobilitySpeeds) {
		t.Errorf("notes = %d, want one per run", len(f.Notes))
	}
}

// TestRunAllFailsFastOnInvalidConfig exercises the fail-fast contract the
// runners rely on: an invalid config in a sweep reports its error.
func TestRunAllFailsFastOnInvalidConfig(t *testing.T) {
	camp := manetsim.NewCampaign(manetsim.BenchScale)
	cfgs := []core.Config{
		{Scenario: core.Chain(2).WithFlows(core.Flow{Src: 0, Dst: 99})}, // invalid flow
		chainCfg(2, rates[0], core.TransportSpec{Name: "vegas"}),
	}
	if _, err := camp.RunAll(context.Background(), cfgs); err == nil {
		t.Fatal("invalid config did not fail the sweep")
	}
}

// TestRunAllAbortDoesNotPoisonCache runs a failing sweep and then the same
// valid config again: a skipped (aborted) run must not leave a poisoned
// cache entry behind.
func TestRunAllAbortDoesNotPoisonCache(t *testing.T) {
	camp := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(1))
	good := chainCfg(2, rates[0], core.TransportSpec{Name: "vegas"})
	bad := core.Config{Scenario: core.Chain(2).WithFlows(core.Flow{Src: 0, Dst: 99})}
	if _, err := camp.RunAll(context.Background(), []core.Config{bad, good, good, good}); err == nil {
		t.Fatal("failing sweep reported success")
	}
	res, err := camp.Run(context.Background(), good)
	if err != nil {
		t.Fatalf("valid config failed after an aborted sweep: %v", err)
	}
	if res == nil || res.Delivered == 0 {
		t.Error("post-abort rerun returned an empty result")
	}
}

// TestRunRejectsUnknownID checks that Run names an unknown id before it
// starts any experiment.
func TestRunRejectsUnknownID(t *testing.T) {
	err := Run(manetsim.NewCampaign(manetsim.BenchScale), []string{"table2", "fig99"}, func(*Figure) error {
		t.Error("Run emitted a figure despite an unknown id")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), `"fig99"`) {
		t.Fatalf("Run = %v, want an error naming fig99", err)
	}
}
