package manetsim_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"manetsim"
)

// serveSweep is the small grid the HTTP round-trip tests submit: 2
// transports x 2 seeds on a 2-hop chain at a tiny explicit budget.
func serveSweep() manetsim.Sweep {
	return manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(2)},
		Transports: []manetsim.TransportSpec{{Name: "vegas"}, {Name: "newreno"}},
		Seeds:      []int64{1, 2},
		Base:       manetsim.Config{TotalPackets: 550, BatchPackets: 50},
	}
}

func postSweep(t *testing.T, ts *httptest.Server, sw manetsim.Sweep) string {
	t.Helper()
	body, err := json.Marshal(sw)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var st struct {
		ID    string `json:"id"`
		State string `json:"state"`
		Total int    `json:"total"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.State != "running" {
		t.Fatalf("submit response %+v", st)
	}
	if want := gridSize(t, sw); st.Total != want {
		t.Fatalf("submit total = %d, want %d", st.Total, want)
	}
	return st.ID
}

// gridSize is sw.Size for a grid the test knows to be small.
func gridSize(t *testing.T, sw manetsim.Sweep) int {
	t.Helper()
	n, err := sw.Size()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestServeSweepEndToEnd submits a sweep over HTTP, consumes the
// streamed NDJSON progress until the terminal event, fetches the
// results, and requires them to match a direct Campaign.Sweep of the
// same grid byte for byte.
func TestServeSweepEndToEnd(t *testing.T) {
	campaign := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(2))
	ts := httptest.NewServer(manetsim.NewServer(campaign))
	defer ts.Close()

	sw := serveSweep()
	id := postSweep(t, ts, sw)
	total := gridSize(t, sw)

	// The events stream must deliver one "run" event per grid run and a
	// single terminal "done" — and it blocks until the job ends, so a
	// plain sequential read is the synchronization.
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("events content type %q", ct)
	}
	var runs, terminals int
	seenKeys := map[string]bool{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct {
			Type       string  `json:"type"`
			Key        string  `json:"key"`
			KeyHash    string  `json:"keyHash"`
			Seed       int64   `json:"seed"`
			Done       int     `json:"done"`
			Total      int     `json:"total"`
			GoodputBps float64 `json:"goodputBps"`
			Cells      int     `json:"cells"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad event line %q: %v", sc.Text(), err)
		}
		switch ev.Type {
		case "run":
			runs++
			if ev.Total != total || ev.Done < 1 || ev.Done > total {
				t.Errorf("run event counts %d/%d", ev.Done, ev.Total)
			}
			if ev.Key == "" || len(ev.KeyHash) != 64 {
				t.Errorf("run event key %q hash %q", ev.Key, ev.KeyHash)
			}
			if ev.GoodputBps <= 0 {
				t.Errorf("run event goodput %v", ev.GoodputBps)
			}
			seenKeys[ev.Key] = true
		case "done":
			terminals++
			if ev.Done != total || ev.Cells != 2 {
				t.Errorf("done event %+v", ev)
			}
		default:
			t.Errorf("unexpected event type %q", ev.Type)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if runs != total || terminals != 1 {
		t.Fatalf("stream carried %d run + %d terminal events, want %d + 1", runs, terminals, total)
	}
	if len(seenKeys) != 2 {
		t.Fatalf("stream named %d distinct cells, want 2", len(seenKeys))
	}

	// Status has converged.
	var st struct {
		State string `json:"state"`
		Done  int    `json:"done"`
	}
	getJSON(t, ts, "/api/v1/sweeps/"+id, http.StatusOK, &st)
	if st.State != "done" || st.Done != total {
		t.Fatalf("status after stream end: %+v", st)
	}

	// Results must match a direct Sweep of the same grid on a fresh
	// campaign, byte for byte.
	var got struct {
		State string          `json:"state"`
		Cells json.RawMessage `json:"cells"`
	}
	getJSON(t, ts, "/api/v1/sweeps/"+id+"/results", http.StatusOK, &got)
	if got.State != "done" {
		t.Fatalf("results state %q", got.State)
	}
	direct := manetsim.NewCampaign(manetsim.BenchScale)
	cells, err := direct.Sweep(t.Context(), serveSweep())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(cells)
	if err != nil {
		t.Fatal(err)
	}
	var gotNorm, wantNorm bytes.Buffer
	if err := json.Compact(&gotNorm, got.Cells); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&wantNorm, want); err != nil {
		t.Fatal(err)
	}
	if gotNorm.String() != wantNorm.String() {
		t.Error("served results differ from a direct Campaign.Sweep of the same grid")
	}

	// A late consumer replays the identical stream.
	resp2, err := http.Get(ts.URL + "/api/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	replayed := 0
	sc2 := bufio.NewScanner(resp2.Body)
	for sc2.Scan() {
		replayed++
	}
	if replayed != total+1 {
		t.Fatalf("replay carried %d events, want %d", replayed, total+1)
	}
}

func getJSON(t *testing.T, ts *httptest.Server, path string, wantCode int, v any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s = %d, want %d", path, resp.StatusCode, wantCode)
	}
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
}

func TestServeResultsWhileRunningAndListing(t *testing.T) {
	campaign := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(1))
	ts := httptest.NewServer(manetsim.NewServer(campaign))
	defer ts.Close()
	id := postSweep(t, ts, serveSweep())

	// Immediately after submit the job is either still running (202 on
	// results) or already done (200); both are legal, nothing else is.
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id + "/results")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("results while running = %d, want 202 or 200", resp.StatusCode)
	}

	var jobs []struct {
		ID string `json:"id"`
	}
	getJSON(t, ts, "/api/v1/sweeps", http.StatusOK, &jobs)
	if len(jobs) != 1 || jobs[0].ID != id {
		t.Fatalf("listing = %+v, want the one submitted job", jobs)
	}

	// Drain the job so the test server shuts down cleanly.
	waitForState(t, ts, id, "done", 2*time.Minute)
}

func waitForState(t *testing.T, ts *httptest.Server, id, want string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var st struct {
			State string `json:"state"`
		}
		getJSON(t, ts, "/api/v1/sweeps/"+id, http.StatusOK, &st)
		if st.State == want {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s never reached state %q", id, want)
}

func TestServeRejectsBadSubmissions(t *testing.T) {
	campaign := manetsim.NewCampaign(manetsim.BenchScale)
	ts := httptest.NewServer(manetsim.NewServer(campaign))
	defer ts.Close()

	post := func(body string) int {
		resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("garbage body = %d, want 400", code)
	}
	if code := post("{}"); code != http.StatusBadRequest {
		t.Errorf("empty sweep = %d, want 400", code)
	}
	if code := post(`{"Scenarios":[{"Name":"empty"}]}`); code != http.StatusBadRequest {
		t.Errorf("invalid scenario = %d, want 400", code)
	}
	if code := post(`{"Bogus":1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field = %d, want 400", code)
	}
}

// TestServeRejectsUnboundedGrid: a grid past the server's run bound is
// refused before any job exists. Four 2^16-entry axes multiply to 2^64,
// which an unchecked int product wraps to 0 (four 2^20-entry axes, 2^80,
// fit in a 10 MB document and wrap the same way); two axes of 2 and 50 001
// stay far from wrapping and still cross the 100 000-run bound.
func TestServeRejectsUnboundedGrid(t *testing.T) {
	ts := httptest.NewServer(manetsim.NewServer(manetsim.NewCampaign(manetsim.BenchScale)))
	defer ts.Close()
	const n = 1 << 16
	wide := manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(2)},
		Seeds:      make([]int64, n),
		Rates:      make([]manetsim.Rate, n),
		LinkModels: make([]manetsim.LinkModelSpec, n),
		Faults:     make([][]manetsim.FaultSpec, n),
	}
	long := manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(2)},
		Transports: []manetsim.TransportSpec{{Name: "vegas"}, {Name: "newreno"}},
		Seeds:      make([]int64, 50_001),
	}
	for name, sw := range map[string]manetsim.Sweep{"four 2^16 axes": wide, "2 x 50 001": long} {
		body, err := json.Marshal(sw)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var msg struct {
			Error string `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(msg.Error, "more than 100000 runs") {
			t.Errorf("%s: submit = %d %q, want 400 naming the run bound", name, resp.StatusCode, msg.Error)
		}
	}
	var jobs []json.RawMessage
	getJSON(t, ts, "/api/v1/sweeps", http.StatusOK, &jobs)
	if len(jobs) != 0 {
		t.Errorf("%d jobs after rejected submits, want 0", len(jobs))
	}
}

// TestServeCountsGridBeforeDecoding: a 10 MB document with 2^20 entries
// in each of Seeds, Rates, LinkModels and Faults is refused by counting
// its axes, not by decoding them (which allocated 77 times the body): the
// handler allocates less than 4 times the body.
func TestServeCountsGridBeforeDecoding(t *testing.T) {
	const n = 1 << 20
	var doc bytes.Buffer
	doc.WriteString(`{"Scenarios":[{"Name":"c","Nodes":[{"X":0,"Y":0},{"X":200,"Y":0}],"Flows":[{"Src":0,"Dst":1}]}]`)
	for _, axis := range []struct{ name, elem string }{{"Seeds", "1"}, {"Rates", "1"}, {"LinkModels", "{}"}, {"Faults", "[]"}} {
		doc.WriteString(`,"` + axis.name + `":[` + axis.elem)
		doc.Write(bytes.Repeat([]byte(","+axis.elem), n-1))
		doc.WriteString("]")
	}
	doc.WriteString("}")
	body := doc.Bytes()
	srv := manetsim.NewServer(manetsim.NewCampaign(manetsim.BenchScale))
	req := httptest.NewRequest(http.MethodPost, "/api/v1/sweeps", bytes.NewReader(body))
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "more than 100000 runs") {
		t.Fatalf("submit = %d %s, want 400 naming the run bound", w.Code, w.Body)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d-byte document: %d bytes allocated (%.1fx)", len(body), alloc, float64(alloc)/float64(len(body)))
	if alloc > 4*uint64(len(body)) {
		t.Errorf("refusing the grid allocated %d bytes, want under 4x the %d-byte body", alloc, len(body))
	}
}

// TestServeAllocatesWhatArrives: a request that declares a 16 MiB body
// and sends a few bytes costs the handler about what it sent, not the
// declared length; the buffer grows only as bytes arrive.
func TestServeAllocatesWhatArrives(t *testing.T) {
	srv := manetsim.NewServer(manetsim.NewCampaign(manetsim.BenchScale))
	submit := func() (*httptest.ResponseRecorder, *http.Request) {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/sweeps", strings.NewReader(`{"Seeds":[1,2]}`))
		req.ContentLength = 16 << 20
		return httptest.NewRecorder(), req
	}
	// A first request fills the decoder's type caches, which are not
	// per-request costs.
	srv.ServeHTTP(submit())
	w, req := submit()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	srv.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "at least one scenario") {
		t.Fatalf("submit = %d %s, want 400 asking for a scenario", w.Code, w.Body)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("15-byte body declared as %d bytes: %d bytes allocated", req.ContentLength, alloc)
	if alloc > 64<<10 {
		t.Errorf("a 15-byte body declared as 16 MiB allocated %d bytes, want under 64 KiB", alloc)
	}
}

func TestServeUnknownJobIs404(t *testing.T) {
	ts := httptest.NewServer(manetsim.NewServer(manetsim.NewCampaign(manetsim.BenchScale)))
	defer ts.Close()
	for _, path := range []string{
		"/api/v1/sweeps/nope",
		"/api/v1/sweeps/nope/results",
		"/api/v1/sweeps/nope/events",
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServeFailedSweepSurfacesError(t *testing.T) {
	campaign := manetsim.NewCampaign(manetsim.BenchScale)
	ts := httptest.NewServer(manetsim.NewServer(campaign))
	defer ts.Close()

	// Structurally valid, but the transport name resolves to nothing, so
	// the sweep fails at run time: the job must land in "failed" with the
	// error on status, results and the event stream.
	sw := serveSweep()
	sw.Transports = []manetsim.TransportSpec{{Name: "no-such-transport"}}
	id := postSweep(t, ts, sw)
	waitForState(t, ts, id, "failed", time.Minute)

	var st struct {
		State string `json:"state"`
		Error string `json:"error"`
	}
	getJSON(t, ts, "/api/v1/sweeps/"+id, http.StatusOK, &st)
	if st.Error == "" || !strings.Contains(st.Error, "no-such-transport") {
		t.Fatalf("failed status carries error %q", st.Error)
	}
	getJSON(t, ts, "/api/v1/sweeps/"+id+"/results", http.StatusInternalServerError, nil)

	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	last := ""
	for sc.Scan() {
		last = sc.Text()
	}
	if !strings.Contains(last, `"type":"error"`) {
		t.Fatalf("terminal event %q, want an error event", last)
	}
}

// TestServeNegativeWarmupFailsByName submits a sweep whose base config
// discards -1 warm-up batches. Validation must reject it by name; unchecked,
// every run would panic slicing its batches and the job would fail with
// only "simulation panicked".
func TestServeNegativeWarmupFailsByName(t *testing.T) {
	ts := httptest.NewServer(manetsim.NewServer(manetsim.NewCampaign(manetsim.BenchScale)))
	defer ts.Close()

	sw := serveSweep()
	sw.Base.WarmupBatches = -1
	id := postSweep(t, ts, sw)
	waitForState(t, ts, id, "failed", time.Minute)

	var st struct {
		Error string `json:"error"`
	}
	getJSON(t, ts, "/api/v1/sweeps/"+id, http.StatusOK, &st)
	if !strings.Contains(st.Error, "WarmupBatches") || strings.Contains(st.Error, "panicked") {
		t.Fatalf("failed status carries error %q, want one naming WarmupBatches", st.Error)
	}
}

func TestServeHealthAndTransports(t *testing.T) {
	ts := httptest.NewServer(manetsim.NewServer(manetsim.NewCampaign(manetsim.BenchScale)))
	defer ts.Close()
	getJSON(t, ts, "/api/v1/healthz", http.StatusOK, nil)
	var infos []manetsim.TransportInfo
	getJSON(t, ts, "/api/v1/transports", http.StatusOK, &infos)
	if len(infos) < 7 {
		t.Fatalf("transports listing carried %d entries, want the full registry", len(infos))
	}
}

// TestServeSharesStoreAcrossRestart is the service-level resume story: a
// second server over a fresh campaign pointed at the same store
// directory must complete an identical sweep without executing a single
// simulation.
func TestServeSharesStoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()

	first := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir))
	ts1 := httptest.NewServer(manetsim.NewServer(first))
	id := postSweep(t, ts1, serveSweep())
	waitForState(t, ts1, id, "done", 2*time.Minute)
	ts1.Close()
	total := int64(gridSize(t, serveSweep()))
	if got := first.Executed(); got != total {
		t.Fatalf("first server executed %d runs, want %d", got, total)
	}

	second := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir))
	ts2 := httptest.NewServer(manetsim.NewServer(second))
	defer ts2.Close()
	id2 := postSweep(t, ts2, serveSweep())
	waitForState(t, ts2, id2, "done", 2*time.Minute)
	if got := second.Executed(); got != 0 {
		t.Fatalf("restarted server executed %d runs, want 0 (all served from the store)", got)
	}
	var got struct {
		Cells []manetsim.Cell `json:"cells"`
	}
	getJSON(t, ts2, "/api/v1/sweeps/"+id2+"/results", http.StatusOK, &got)
	if len(got.Cells) != 2 {
		t.Fatalf("resumed results carried %d cells, want 2", len(got.Cells))
	}
	for _, cell := range got.Cells {
		if cell.Goodput.Mean <= 0 {
			t.Errorf("cell %s: zero goodput from the store", cell.Transport.Label())
		}
		if _, ok := manetsim.FindCell(got.Cells, cell.Key); !ok {
			t.Errorf("cell key %s not addressable via FindCell", cell.Key.Hash())
		}
	}
}

// TestServeOversizedSubmitIs413: a sweep document past the body limit is
// refused with 413, not a generic 400.
func TestServeOversizedSubmitIs413(t *testing.T) {
	ts := httptest.NewServer(manetsim.NewServer(manetsim.NewCampaign(manetsim.BenchScale)))
	defer ts.Close()
	// A structurally valid sweep whose seed list alone crosses 16 MiB.
	var body bytes.Buffer
	body.WriteString(`{"Seeds":[9`)
	body.Write(bytes.Repeat([]byte(",9"), 9<<20))
	body.WriteString(`]}`)
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", &body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit = %d, want 413", resp.StatusCode)
	}
	var msg struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&msg); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(msg.Error, "limit") {
		t.Errorf("413 error %q does not name the limit", msg.Error)
	}
}

// TestServerShutdownDrainsSweeps: a graceful Shutdown waits for in-flight
// sweeps, returns nil, and refuses later submissions with 503.
func TestServerShutdownDrainsSweeps(t *testing.T) {
	campaign := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(2))
	server := manetsim.NewServer(campaign)
	ts := httptest.NewServer(server)
	defer ts.Close()
	id := postSweep(t, ts, serveSweep())

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := server.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown returned %v", err)
	}

	// The in-flight sweep ran to completion...
	var st struct {
		State string `json:"state"`
	}
	getJSON(t, ts, "/api/v1/sweeps/"+id, http.StatusOK, &st)
	if st.State != "done" {
		t.Fatalf("drained job state %q, want done", st.State)
	}
	// ...and the server no longer accepts work.
	body, _ := json.Marshal(serveSweep())
	resp, err := http.Post(ts.URL+"/api/v1/sweeps", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit after shutdown = %d, want 503", resp.StatusCode)
	}
}

// TestServeForcedShutdownLosesNoCompletedRuns is the kill-and-restart
// guarantee: aborting a store-backed server mid-sweep keeps every run
// that completed before the kill, and a restarted server re-runs only
// the remainder.
func TestServeForcedShutdownLosesNoCompletedRuns(t *testing.T) {
	dir := t.TempDir()
	sw := manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{manetsim.Chain(2), manetsim.Chain(3)},
		Transports: []manetsim.TransportSpec{{Name: "vegas"}, {Name: "newreno"}},
		Seeds:      []int64{1, 2, 3, 4, 5, 6, 7, 8},
		// Per-run budget large enough that the kill below lands mid-sweep
		// even on a fast machine.
		Base: manetsim.Config{TotalPackets: 5500, BatchPackets: 500},
	}
	total := int64(gridSize(t, sw))

	first := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithWorkers(1), manetsim.WithStore(dir))
	server := manetsim.NewServer(first)
	ts := httptest.NewServer(server)
	id := postSweep(t, ts, sw)

	// Watch the stream until two runs completed, then kill the server
	// with an already-expired drain deadline (forced abort).
	resp, err := http.Get(ts.URL + "/api/v1/sweeps/" + id + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	seen := 0
	for sc.Scan() && seen < 2 {
		if strings.Contains(sc.Text(), `"type":"run"`) {
			seen++
		}
	}
	resp.Body.Close()
	if seen < 2 {
		t.Fatal("stream ended before two runs completed")
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := server.Shutdown(expired); err == nil {
		t.Fatal("forced shutdown reported a clean drain")
	}
	ts.Close()
	completed := first.Executed()
	if completed < 2 || completed >= total {
		t.Fatalf("first server completed %d of %d runs; the kill missed mid-sweep", completed, total)
	}

	// Restart over the same store: only the remainder executes, and the
	// resumed sweep still completes every cell.
	second := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir))
	ts2 := httptest.NewServer(manetsim.NewServer(second))
	defer ts2.Close()
	id2 := postSweep(t, ts2, sw)
	waitForState(t, ts2, id2, "done", 2*time.Minute)
	if got := second.Executed(); got > total-completed {
		t.Fatalf("restart re-ran %d runs; %d completed runs were lost", got, got-(total-completed))
	}
	var got struct {
		Cells []manetsim.Cell `json:"cells"`
	}
	getJSON(t, ts2, "/api/v1/sweeps/"+id2+"/results", http.StatusOK, &got)
	if len(got.Cells) != 4 {
		t.Fatalf("resumed sweep carried %d cells, want 4", len(got.Cells))
	}
	for _, cell := range got.Cells {
		if len(cell.Runs) != len(sw.Seeds) || cell.Goodput.Mean <= 0 {
			t.Fatalf("cell %s incomplete after resume", cell.Transport.Label())
		}
	}
}
