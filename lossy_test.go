package manetsim_test

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"manetsim"
)

// TestWestwoodBeatsRenoUnderUniformLoss is the headline acceptance gate
// of the link-impairment subsystem: in the random-loss regime the paper's
// congestion-control argument predicts, a bandwidth-estimating sender
// must separate from blind-halving Reno with statistical confidence. A
// full Sweep at 1% uniform frame loss on the 7-hop chain, replicated
// over five seeds, must put Westwood+'s goodput above Reno's with
// non-overlapping 95% confidence intervals.
func TestWestwoodBeatsRenoUnderUniformLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale sweep")
	}
	c := manetsim.NewCampaign(manetsim.QuickScale)
	cells, err := c.Sweep(t.Context(), manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(7)},
		Transports: []manetsim.TransportSpec{{Name: "reno"}, {Name: "westwood"}},
		LinkModels: []manetsim.LinkModelSpec{manetsim.UniformLossModel(0.01)},
		Seeds:      []int64{1, 2, 3, 4, 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	reno, westwood := cells[0], cells[1]
	if reno.Transport.Name != "reno" || westwood.Transport.Name != "westwood" {
		t.Fatalf("unexpected grid order: %q, %q", reno.Transport.Name, westwood.Transport.Name)
	}
	for _, cell := range cells {
		for _, run := range cell.Runs {
			if run.ImpairedFrames == 0 {
				t.Fatalf("%s run impaired no frames at 1%% loss", cell.Transport.Label())
			}
		}
	}
	t.Logf("reno %.1f [%.1f:%.1f] kb/s, westwood+ %.1f [%.1f:%.1f] kb/s",
		reno.Goodput.Mean/1e3, reno.Goodput.Lo()/1e3, reno.Goodput.Hi()/1e3,
		westwood.Goodput.Mean/1e3, westwood.Goodput.Lo()/1e3, westwood.Goodput.Hi()/1e3)
	if westwood.Goodput.Lo() <= reno.Goodput.Hi() {
		t.Errorf("intervals overlap: westwood+ [%.0f:%.0f] vs reno [%.0f:%.0f] bit/s",
			westwood.Goodput.Lo(), westwood.Goodput.Hi(), reno.Goodput.Lo(), reno.Goodput.Hi())
	}
}

// impairedSweep is the small lossy grid the determinism tests run:
// bursty Gilbert-Elliott loss with jitter against uniform loss, two
// seeds, on a short chain at an explicit tiny budget.
func impairedSweep() manetsim.Sweep {
	ge := manetsim.GilbertElliottModel(0.02, 0.3, 0.5)
	ge.Jitter = 10 * time.Microsecond
	return manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(2)},
		Transports: []manetsim.TransportSpec{{Name: "newreno"}},
		LinkModels: []manetsim.LinkModelSpec{ge, manetsim.UniformLossModel(0.03)},
		Seeds:      []int64{1, 2},
		Base:       manetsim.Config{TotalPackets: 550, BatchPackets: 50},
	}
}

func marshalCells(t *testing.T, cells []manetsim.Cell) string {
	t.Helper()
	b, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestImpairedSweepStoreResumeByteIdentical runs an impaired sweep
// through the persistent store twice: the resumed sweep must execute
// zero simulations and reproduce the first pass byte for byte.
func TestImpairedSweepStoreResumeByteIdentical(t *testing.T) {
	dir := t.TempDir()
	first := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir))
	a, err := first.Sweep(t.Context(), impairedSweep())
	if err != nil {
		t.Fatal(err)
	}
	if first.Executed() == 0 {
		t.Fatal("first pass executed nothing")
	}
	second := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir))
	b, err := second.Sweep(t.Context(), impairedSweep())
	if err != nil {
		t.Fatal(err)
	}
	if n := second.Executed(); n != 0 {
		t.Errorf("resumed impaired sweep executed %d simulations, want 0", n)
	}
	if marshalCells(t, a) != marshalCells(t, b) {
		t.Error("store-resumed impaired sweep differs from the original")
	}
}

// TestImpairedSweepServedByteIdentical submits the impaired grid to a
// running server and requires the HTTP results to match a direct
// Campaign.Sweep byte for byte — the serve path adds no nondeterminism
// on top of the impaired simulator.
func TestImpairedSweepServedByteIdentical(t *testing.T) {
	campaign := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(2))
	ts := httptest.NewServer(manetsim.NewServer(campaign))
	defer ts.Close()

	id := postSweep(t, ts, impairedSweep())
	// The events stream blocks until the job ends; draining it is the
	// synchronization.
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var got struct {
		State string          `json:"state"`
		Cells json.RawMessage `json:"cells"`
	}
	getJSON(t, ts, "/api/v1/sweeps/"+id+"/results", http.StatusOK, &got)
	if got.State != "done" {
		t.Fatalf("results state %q", got.State)
	}
	direct := manetsim.NewCampaign(manetsim.BenchScale)
	cells, err := direct.Sweep(t.Context(), impairedSweep())
	if err != nil {
		t.Fatal(err)
	}
	var gotNorm, wantNorm bytes.Buffer
	if err := json.Compact(&gotNorm, got.Cells); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantNorm, []byte(marshalCells(t, cells))); err != nil {
		t.Fatal(err)
	}
	if gotNorm.String() != wantNorm.String() {
		t.Error("served impaired results differ from a direct Campaign.Sweep")
	}
}
