package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"manetsim"
)

// workers is the Campaign parallelism of every workload that uses one. It is
// fixed, not taken from the host, so that two hosts run the same schedule;
// the box the sizes were chosen on has two cores.
const workers = 2

// A workload turns a seed into inputs and a warm program (setup) and then
// repeats one fixed piece of work on it. Every repetition does identical
// work, so its results must hash to the same digest each time.
type workload struct {
	name  string
	setup func(seed int64, sz sizes, scratch string) (instance, error)
}

// sizes is how much work one repetition does. The benchmark always runs
// full; bench_test.go drives the same code at toy size.
type sizes struct {
	chainSeeds    int   // runs per transport of chain_tcp
	chainPackets  int64 // per run, in 11 batches
	mobileSeeds   int   // runs of mobile_faults
	mobilePackets int64 // per run, in 11 batches
	sweepJobs     int   // Sweep calls per repetition of sweep_replicates
	jobSeeds      int   // seeds per Sweep call, each run under two transports
	serveDocs     int   // sweep documents per pass of serve_store
}

var full = sizes{chainSeeds: 3, chainPackets: 11000, mobileSeeds: 6, mobilePackets: 2750, sweepJobs: 10, jobSeeds: 100, serveDocs: 24}

type instance interface {
	repeat(tr *tracer) repetition
}

// runSeed is the seed of a workload's i-th run. The seed sets of two
// benchmark seeds share nothing, so another -seed is other inputs throughout.
func runSeed(seed int64, i int) int64 { return seed<<16 + int64(i) }

var workloads = []workload{
	{"chain_tcp", setupChainTCP},
	{"mobile_faults", setupMobileFaults},
	{"sweep_replicates", setupSweepReplicates},
	{"serve_store", setupServeStore},
}

// repetition is what one repetition produced. The cold phase is the part in
// which every simulation actually runs; throughput and allocations are taken
// over it alone. Workloads with a result cache follow it with a warm phase
// that asks for the same results again.
type repetition struct {
	wall    time.Duration // cold phase, host time
	mallocs uint64        // heap allocations during the cold phase
	packets int64         // packets the cold phase's simulations delivered
	runs    int64         // simulations the cold phase ran
	ops     int64         // allocs_per_op denominator, see README.md

	attempted int // run results handed back to the caller, cold and warm
	failed    int // of those: errored, truncated or short of the packet target

	jobMs  []float64 // latency of each cold job
	warmMs []float64 // latency of each job whose results already existed

	digest string   // SHA-256 over the canonical JSON of the cold results
	stats  simStats // simulated statistics of the cold results
	errs   []string // output checks that failed
}

func (r *repetition) failf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// meter brackets a cold phase.
type meter struct {
	t0 time.Time
	m0 uint64
}

func startMeter() meter {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return meter{time.Now(), ms.Mallocs}
}

func (m meter) stop(r *repetition) {
	r.wall = time.Since(m.t0)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.mallocs = ms.Mallocs - m.m0
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

// simStats sums the simulated statistics of a set of results. They are
// functions of the seeds alone, so they repeat exactly.
type simStats struct {
	runs                       int
	simTime                    time.Duration
	goodput, rtx, window, drop float64
	falseRF, trueRF            uint64
	impaired, cut              uint64
	healMs                     float64
	heals                      int
}

func (s *simStats) add(res *manetsim.Result) {
	s.runs++
	s.simTime += res.SimTime
	s.goodput += res.AggGoodput.Mean
	s.rtx += res.Rtx.Mean
	s.window += res.AvgWindow.Mean
	s.drop += res.DropProb.Mean
	s.falseRF += res.FalseRouteFailures
	s.trueRF += res.TrueRouteFailures
	s.impaired += res.ImpairedFrames
	if f := res.Faults; f != nil {
		s.cut += f.FramesCut
		for _, o := range f.Outages {
			if o.RecoveredAfterHeal {
				s.healMs += float64(o.TimeToRecoverAfterHeal) / float64(time.Millisecond)
				s.heals++
			}
		}
	}
}

// absorb checks one result against its packet target and folds it into the
// repetition. A nil result is a run that returned an error.
func (r *repetition) absorb(res *manetsim.Result, target int64, cold bool) {
	r.attempted++
	if res == nil || res.Truncated || res.Delivered < target {
		r.failed++
	}
	if res == nil || !cold {
		return
	}
	r.runs++
	r.packets += res.Delivered
	r.stats.add(res)
}

// absorbJob folds in the runs one job handed back. A job that failed handed
// back fewer than its grid of runs; the missing ones count as failed.
func (r *repetition) absorbJob(cells []manetsim.Cell, grid int, target int64, cold bool) {
	n := 0
	for _, c := range cells {
		for _, res := range c.Runs {
			r.absorb(res, target, cold)
			n++
		}
	}
	for ; n < grid; n++ {
		r.absorb(nil, 0, cold)
	}
}

// hashResult feeds a result's canonical JSON to h. The scenario is left out:
// it is the input the harness generated, and on the 210-node grid it would
// be most of the bytes.
func hashResult(h hash.Hash, res *manetsim.Result) {
	c := *res
	c.Config.Scenario = nil
	b, err := json.Marshal(&c)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding a result: %v", err)) // plain data; cannot fail
	}
	h.Write(b)
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// --- chain_tcp and mobile_faults: fresh manetsim runs, one after another ---

// runWorkload executes a fixed list of configs, each a fresh world. A job is
// the list — the experiment a user submits — run one after another, one job
// per repetition. (One run as the job was tried: on mobile_faults the slowest
// of six runs differs by a tenth from one seed set to the next.) Nothing
// below the API remembers a result, so the same experiment again costs full
// runs: the warm jobs are those of every repetition after the first.
type runWorkload struct {
	cfgs []manetsim.Config
	done int
}

func (w *runWorkload) repeat(tr *tracer) repetition {
	var r repetition
	results := make([]*manetsim.Result, len(w.cfgs))
	root := tr.begin("repetition", -1)
	m := startMeter()
	for i, cfg := range w.cfgs {
		id := tr.begin("run", root)
		res, err := manetsim.RunConfig(context.Background(), cfg)
		tr.end(id)
		if err != nil {
			r.failf("run %d: %v", i, err)
			continue
		}
		results[i] = res
	}
	m.stop(&r)
	tr.end(root)
	tr.phase("done")
	h := sha256.New()
	for i, res := range results {
		r.absorb(res, w.cfgs[i].TotalPackets, true)
		if res != nil {
			hashResult(h, res)
		}
	}
	r.digest = hexSum(h)
	r.ops = r.packets
	r.jobMs = []float64{float64(r.wall) / float64(time.Millisecond)}
	if w.done > 0 {
		r.warmMs = r.jobMs
	}
	w.done++
	return r
}

// warmUp runs every config at a twentieth of its packets: enough to fault in
// the code and grow the heap, the only state fresh runs share. It runs all of
// them, not the first alone, because the cost of a short mobile run depends
// on its seed far more than the cost of six does.
func (w *runWorkload) warmUp() error {
	for _, cfg := range w.cfgs {
		cfg.TotalPackets /= 20
		cfg.BatchPackets /= 20
		if _, err := manetsim.RunConfig(context.Background(), cfg); err != nil {
			return err
		}
	}
	return nil
}

// setupChainTCP is the paper's core experiment: Vegas against NewReno on the
// 8-hop chain at 2 Mbit/s, three seeds each, at the quick scale.
func setupChainTCP(seed int64, sz sizes, _ string) (instance, error) {
	w := &runWorkload{}
	for _, name := range []string{"vegas", "newreno"} {
		for i := 0; i < sz.chainSeeds; i++ {
			w.cfgs = append(w.cfgs, manetsim.Config{
				Scenario:     manetsim.Chain(8),
				Bandwidth:    manetsim.Rate2Mbps,
				Transport:    manetsim.TransportSpec{Name: name},
				Seed:         runSeed(seed, i),
				TotalPackets: sz.chainPackets,
				BatchPackets: sz.chainPackets / 11,
			})
		}
	}
	return w, w.warmUp()
}

// mobileField is a 1500 m x 1000 m field of 50 nodes. Two flows cross it
// from x = 400 m to x = 1100 m, 700 m or at least three hops, one along
// y = 250 m and one along y = 750 m; their four endpoints stay where they
// are. The other 46 nodes start where rng puts them and roam.
//
// The endpoints are pinned because the cost of a delivered packet follows the
// hop count of its path: with random flows among roaming nodes (the shape the
// issue first asked for) one seed costs 2.4 times another, and no number of
// runs that fits the measuring time averages that out.
func mobileField(rng *rand.Rand) *manetsim.Scenario {
	scn := manetsim.NewScenario("mobile-50")
	for _, y := range []float64{250, 750} {
		src := scn.AddNode(400, y)
		dst := scn.AddNode(1100, y)
		scn.AddFlow(src, dst)
	}
	for scn.NumNodes() < 50 {
		scn.AddNode(rng.Float64()*1500, rng.Float64()*1000)
	}
	return scn.WithMobility(manetsim.MobilitySpec{
		Kind:             manetsim.MobilityRandomWaypoint,
		MaxSpeed:         20,
		Pause:            2 * time.Second,
		FieldWidth:       1500,
		FieldHeight:      1000,
		PinFlowEndpoints: true,
	})
}

// setupMobileFaults puts the same kernel under everything chain_tcp leaves
// out: 50 nodes of which 46 move, lossy links, a relay that crashes and a
// partition that cuts both flows, AODV repairing routes throughout.
func setupMobileFaults(seed int64, sz sizes, _ string) (instance, error) {
	w := &runWorkload{}
	for i := 0; i < sz.mobileSeeds; i++ {
		w.cfgs = append(w.cfgs, manetsim.Config{
			Scenario:     mobileField(rand.New(rand.NewSource(runSeed(seed, i)))),
			Bandwidth:    manetsim.Rate2Mbps,
			Transport:    manetsim.TransportSpec{Name: "newreno"},
			Seed:         runSeed(seed, i),
			TotalPackets: sz.mobilePackets,
			BatchPackets: sz.mobilePackets / 11,
			LinkModel:    manetsim.UniformLossModel(0.01),
			Faults: []manetsim.FaultSpec{
				manetsim.CrashFault(7, 5*time.Second, 5*time.Second),
				manetsim.PartitionFault(750, 20*time.Second, 3*time.Second),
			},
			MaxSimTime: 2 * time.Hour,
		})
	}
	return w, w.warmUp()
}

// --- sweep_replicates: many short runs on an expensive world ---

// sweepWorkload drives Campaign.Sweep over the 210-node static-routed grid.
// A repetition is a fresh Campaign given sizes.sweepJobs sweeps over disjoint
// seed ranges (the cold phase: every run simulates, on the two arenas the
// campaign builds) and then the same sweeps sweepWarmPasses times more (the
// warm phase: every run is an in-memory cache hit). A job is one Sweep call.
type sweepWorkload struct {
	scn  *manetsim.Scenario
	seed int64
	jobs int
	per  int // seeds per job
}

var sweepScale = manetsim.Scale{Name: "sweep", TotalPackets: 110, BatchPackets: 10, Seed: 1}

func (w *sweepWorkload) sweep(job int) manetsim.Sweep {
	seeds := make([]int64, w.per)
	for i := range seeds {
		seeds[i] = runSeed(w.seed, job*w.per+i)
	}
	return manetsim.Sweep{
		Scenarios:  []*manetsim.Scenario{w.scn},
		Transports: []manetsim.TransportSpec{{Name: "vegas"}, {Name: "newreno"}},
		Seeds:      seeds,
		Base:       manetsim.Config{Bandwidth: manetsim.Rate2Mbps},
	}
}

func (w *sweepWorkload) repeat(tr *tracer) repetition {
	var r repetition
	ctx := context.Background()
	camp := manetsim.NewCampaign(sweepScale, manetsim.WithWorkers(workers))
	grid := 2 * w.per

	// pass submits every job once and returns the latencies. Results are
	// folded in after the clock stops.
	pass := func(name string, root int) ([]float64, [][]manetsim.Cell) {
		var lat []float64
		var out [][]manetsim.Cell
		for j := 0; j < w.jobs; j++ {
			id := tr.begin(name, root)
			t0 := time.Now()
			cells, err := camp.Sweep(ctx, w.sweep(j))
			lat = append(lat, msSince(t0))
			tr.end(id)
			if err != nil {
				r.failf("%s %d: %v", name, j, err)
			}
			out = append(out, cells)
		}
		return lat, out
	}

	root := tr.begin("repetition", -1)
	m := startMeter()
	lat, cold := pass("sweep", root)
	m.stop(&r)
	r.jobMs = lat
	if got, want := camp.Executed(), int64(w.jobs*grid); got != want {
		r.failf("cold phase executed %d simulations, want %d", got, want)
	}
	tr.phase("warm")
	var warm [][]manetsim.Cell
	for p := 0; p < sweepWarmPasses; p++ {
		lat, cells := pass("sweep_warm", root)
		r.warmMs = append(r.warmMs, lat...)
		warm = append(warm, cells...)
	}
	if got, want := camp.Executed(), int64(w.jobs*grid); got != want {
		r.failf("warm phase ran simulations: executed %d, want %d", got, want)
	}
	tr.end(root)
	tr.phase("done")

	h := sha256.New()
	for _, cells := range cold {
		r.absorbJob(cells, grid, sweepScale.TotalPackets, true)
		for _, c := range cells {
			for _, res := range c.Runs {
				hashResult(h, res)
			}
		}
	}
	for _, cells := range warm {
		r.absorbJob(cells, grid, sweepScale.TotalPackets, false)
	}
	r.digest = hexSum(h)
	r.ops = r.runs
	return r
}

func gridScenario() *manetsim.Scenario {
	scn := manetsim.NewScenario("grid-15x14").WithRouting(manetsim.RoutingStatic)
	for row := 0; row < 14; row++ {
		for col := 0; col < 15; col++ {
			scn.AddNode(float64(col)*200, float64(row)*200)
		}
	}
	return scn.AddFlow(0, 2)
}

func setupSweepReplicates(seed int64, sz sizes, _ string) (instance, error) {
	w := &sweepWorkload{scn: gridScenario(), seed: seed, jobs: sz.sweepJobs, per: sz.jobSeeds}
	// Warm-up: one two-seed sweep on a campaign of its own, which builds
	// both arenas once.
	warm := &sweepWorkload{scn: w.scn, seed: seed, jobs: 1, per: 2}
	camp := manetsim.NewCampaign(sweepScale, manetsim.WithWorkers(workers))
	_, err := camp.Sweep(context.Background(), warm.sweep(0))
	return w, err
}

// --- serve_store: submit-to-results latency of the HTTP service ---

// serveWorkload drives an in-process Server over a store-backed Campaign
// from one client goroutine. A job is POST /sweeps, the event stream up to
// its terminal line, then GET /results, decoded. The cold phase submits
// every document to an empty store; the warm phase submits them again
// serveWarmPasses times, each time to a fresh Campaign and Server on the
// directory the cold phase filled, so every run is a store read.
type serveWorkload struct {
	docs    [][]byte
	grid    int // runs per document
	target  int64
	scratch string
}

// serveWarmPasses and sweepWarmPasses stretch the warm phases, which cost
// milliseconds per job, until a CPU profile of one holds a few dozen samples.
const (
	serveWarmPasses = 8
	sweepWarmPasses = 5
)

func setupServeStore(seed int64, sz sizes, scratch string) (instance, error) {
	w := &serveWorkload{grid: 8, target: 550, scratch: scratch}
	for j := 0; j < sz.serveDocs; j++ {
		doc, err := json.Marshal(manetsim.Sweep{
			Scenarios:  []*manetsim.Scenario{manetsim.Chain(4)},
			Transports: []manetsim.TransportSpec{{Name: "vegas"}, {Name: "newreno"}},
			Seeds:      []int64{runSeed(seed, 4*j), runSeed(seed, 4*j+1), runSeed(seed, 4*j+2), runSeed(seed, 4*j+3)},
			Base:       manetsim.Config{TotalPackets: w.target, BatchPackets: w.target / 11},
		})
		if err != nil {
			return nil, fmt.Errorf("encoding sweep document: %w", err)
		}
		w.docs = append(w.docs, doc)
	}
	// Warm-up: one cold job on a store of its own.
	dir, err := os.MkdirTemp(scratch, "warmup-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	svc := startService(dir)
	defer svc.close()
	if _, err := svc.job(w.docs[0], nil, -1, ""); err != nil {
		return nil, fmt.Errorf("warm-up job: %w", err)
	}
	return w, nil
}

// service is one Campaign + Server + listener + client.
type service struct {
	camp   *manetsim.Campaign
	srv    *manetsim.Server
	ts     *httptest.Server
	client *http.Client
}

func startService(dir string) *service {
	camp := manetsim.NewCampaign(manetsim.BenchScale, manetsim.WithStore(dir), manetsim.WithWorkers(workers))
	srv := manetsim.NewServer(camp)
	return &service{
		camp: camp, srv: srv, ts: httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers}},
	}
}

func (s *service) close() {
	s.client.CloseIdleConnections()
	s.srv.Shutdown(context.Background()) // no sweep is in flight: every job was waited for
	s.ts.Close()
}

// results is the decoded body of GET /results; raw keeps the cells as sent.
type results struct {
	State string
	Cells []manetsim.Cell
	raw   json.RawMessage
}

// job submits one document and waits for its results. Its four spans are
// named submit, first_event, stream and results, plus the given suffix.
func (s *service) job(doc []byte, tr *tracer, parent int, suffix string) (*results, error) {
	base := s.ts.URL + "/api/v1/sweeps"

	id := tr.begin("submit"+suffix, parent)
	resp, err := s.client.Post(base, "application/json", bytes.NewReader(doc))
	if err != nil {
		return nil, err
	}
	var accepted struct{ ID string }
	err = decodeBody(resp, http.StatusAccepted, &accepted)
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}

	id = tr.begin("first_event"+suffix, parent)
	resp, err = s.client.Get(base + "/" + accepted.ID + "/events")
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeBody(resp, http.StatusOK, nil)
	}
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, 1<<20)
	last, n := "", 0
	for lines.Scan() {
		var ev struct{ Type, Error string }
		if err := json.Unmarshal(lines.Bytes(), &ev); err != nil {
			resp.Body.Close()
			return nil, fmt.Errorf("event stream: %w", err)
		}
		if n == 0 {
			tr.end(id)
			id = tr.begin("stream"+suffix, parent)
		}
		n++
		if last = ev.Type; last != "run" {
			if last == "error" {
				err = errors.New(ev.Error)
			}
			break
		}
	}
	tr.end(id)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("job ended in error: %w", err)
	}
	if last != "done" {
		return nil, fmt.Errorf("event stream ended after %d lines without a terminal event: %v", n, lines.Err())
	}

	id = tr.begin("results"+suffix, parent)
	resp, err = s.client.Get(base + "/" + accepted.ID + "/results")
	if err != nil {
		return nil, err
	}
	var body struct {
		State string
		Cells json.RawMessage
	}
	if err := decodeBody(resp, http.StatusOK, &body); err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	out := &results{State: body.State, raw: body.Cells}
	err = json.Unmarshal(body.Cells, &out.Cells)
	tr.setBytes(id, int64(len(body.Cells)))
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("results: %w", err)
	}
	return out, nil
}

// decodeBody reads and closes resp, checks its status and decodes it into v
// (nil to discard).
func decodeBody(resp *http.Response, want int, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d, want %d: %s", resp.StatusCode, want, bytes.TrimSpace(b))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(b, v)
}

func (w *serveWorkload) repeat(tr *tracer) repetition {
	var r repetition
	dir, err := os.MkdirTemp(w.scratch, "store-")
	if err != nil {
		r.failf("store directory: %v", err)
		return r
	}
	defer os.RemoveAll(dir)

	// pass submits every document once; a failed job yields nil results.
	pass := func(svc *service, suffix string, root int) ([]float64, []*results) {
		name := "job" + suffix
		var lat []float64
		var out []*results
		for i, doc := range w.docs {
			id := tr.begin(name, root)
			t0 := time.Now()
			res, err := svc.job(doc, tr, id, suffix)
			lat = append(lat, msSince(t0))
			tr.end(id)
			if err != nil {
				r.failf("%s %d: %v", name, i, err)
			}
			out = append(out, res)
		}
		return lat, out
	}
	fold := func(all []*results, cold bool) {
		for _, res := range all {
			var cells []manetsim.Cell
			if res != nil {
				cells = res.Cells
			}
			r.absorbJob(cells, w.grid, w.target, cold)
		}
	}

	root := tr.begin("repetition", -1)
	svc := startService(dir)
	m := startMeter()
	lat, cold := pass(svc, "", root)
	m.stop(&r)
	r.jobMs = lat
	if got, want := svc.camp.Executed(), int64(len(w.docs)*w.grid); got != want {
		r.failf("cold phase executed %d simulations, want %d", got, want)
	}
	svc.close()

	tr.phase("warm")
	var warm [][]*results
	for p := 0; p < serveWarmPasses; p++ {
		// A service of its own for every pass: a Campaign remembers what it
		// has read, and a second pass over it would never reach the store.
		svc = startService(dir)
		lat, res := pass(svc, "_warm", root)
		r.warmMs = append(r.warmMs, lat...)
		warm = append(warm, res)
		if got := svc.camp.Executed(); got != 0 {
			r.failf("warm pass %d executed %d simulations, want 0: the store missed", p, got)
		}
		svc.close()
	}
	tr.end(root)
	tr.phase("done")

	h := sha256.New()
	for _, res := range cold {
		if res != nil {
			h.Write(res.raw)
		}
	}
	r.digest = hexSum(h)
	fold(cold, true)
	for p, res := range warm {
		fold(res, false)
		for i := range res {
			if res[i] != nil && cold[i] != nil && !bytes.Equal(res[i].raw, cold[i].raw) {
				r.failf("warm pass %d job %d: /results cells differ from the cold body", p, i)
			}
		}
	}
	r.ops = int64(len(w.docs))
	return r
}
