package manetsim

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func benchChainCfg(hops int) Config {
	return Config{
		Scenario:  Chain(hops),
		Bandwidth: Rate2Mbps,
		Transport: TransportSpec{Protocol: Vegas, Alpha: 2},
	}
}

func TestCampaignCacheDedupsRuns(t *testing.T) {
	c := NewCampaign(BenchScale)
	ctx := context.Background()
	a, err := c.Run(ctx, benchChainCfg(2))
	if err != nil {
		t.Fatal(err)
	}
	// An equal config built from scratch: a fresh Scenario, a fresh spec.
	b, err := c.Run(ctx, Config{
		Scenario:  Chain(2),
		Bandwidth: Rate2Mbps,
		Transport: TransportSpec{Protocol: Vegas, Alpha: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("two independently built equal configs were not served from the cache")
	}
}

// TestCampaignArenaReuseMatchesFreshBuilds runs a config grid through a
// campaign whose four worker slots each rewind their World between runs,
// and requires every result to equal a fresh build of the same scaled
// config — a World used once. Under -race this also checks that
// concurrent runs never share a slot's World.
func TestCampaignArenaReuseMatchesFreshBuilds(t *testing.T) {
	var cfgs []Config
	for hops := 2; hops <= 4; hops++ {
		for seed := int64(1); seed <= 4; seed++ {
			cfg := benchChainCfg(hops)
			cfg.Seed = seed
			cfgs = append(cfgs, cfg)
		}
	}
	ctx := context.Background()
	c := NewCampaign(BenchScale, WithWorkers(4))
	got, err := c.RunAll(ctx, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, err := RunConfig(ctx, c.scaled(cfg))
		if err != nil {
			t.Fatal(err)
		}
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want)
		if string(g) != string(w) {
			t.Errorf("cfg %d (seed=%d): arena-pooled result differs from fresh build",
				i, cfgs[i].Seed)
		}
	}
}

func TestConfigKeyFollowsScenarioValues(t *testing.T) {
	a, b := benchChainCfg(4), benchChainCfg(4)
	if a.CacheKey() != b.CacheKey() {
		t.Fatal("independently built equal scenarios keyed differently")
	}
	b.Scenario.Flows[0].Start = time.Second
	if a.CacheKey() == b.CacheKey() {
		t.Fatal("configs with different flow start times share a cache key")
	}
	c := benchChainCfg(4)
	c.Observer = &Observer{} // must not enter the key
	if a.CacheKey() != c.CacheKey() {
		t.Fatal("attaching an observer changed the cache key")
	}
}

// TestConfigCacheKeyIsCanonicalJSON pins the public contract behind the
// persistent store: the key is the config's deterministic JSON encoding
// (what older campaign versions computed internally), so on-disk
// addresses stay stable across binaries.
func TestConfigCacheKeyIsCanonicalJSON(t *testing.T) {
	cfg := benchChainCfg(3)
	want, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := cfg.CacheKey(); got != string(want) {
		t.Fatalf("CacheKey = %s, want the canonical JSON %s", got, want)
	}
}

// TestCampaignParallelReturnsFirstErrorWithoutDraining pins the
// short-circuit contract: one failing work item must surface immediately
// even while a sibling is still running.
func TestCampaignParallelReturnsFirstErrorWithoutDraining(t *testing.T) {
	c := NewCampaign(BenchScale, WithWorkers(2))
	boom := errors.New("boom")
	hang := make(chan struct{})
	defer close(hang) // let the straggler goroutine exit after the test
	done := make(chan error, 1)
	go func() {
		_, err := c.runParallel(2, func(i int, _ *atomic.Bool) (*Result, error) {
			if i == 0 {
				return nil, boom
			}
			<-hang // a slow sibling that never finishes on its own
			return nil, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want %v", err, boom)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("runParallel waited for the hung sibling instead of short-circuiting")
	}
}

// TestCampaignSkipsQueuedWorkAfterError asserts that work queued behind a
// failure never executes: once the abort flag is up, slot acquisition
// bails out before running.
func TestCampaignSkipsQueuedWorkAfterError(t *testing.T) {
	c := NewCampaign(BenchScale, WithWorkers(1))
	if err := c.Ready(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	boom := errors.New("boom")
	release := make(chan struct{})
	var stragglers atomic.Int32
	_, err := c.runParallel(4, func(i int, abort *atomic.Bool) (*Result, error) {
		if i == 0 {
			return nil, boom
		}
		defer stragglers.Add(1)
		<-release // held until the error has already been returned
		cfg := benchChainCfg(2)
		cfg.Seed = int64(i)
		return c.cachedRun(ctx, c.scaled(cfg), abort)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	close(release)
	for i := 0; i < 100 && stragglers.Load() < 3; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if stragglers.Load() != 3 {
		t.Fatalf("only %d/3 stragglers finished", stragglers.Load())
	}
	if n := c.Executed(); n != 0 {
		t.Errorf("%d queued work items ran after the failure, want 0", n)
	}
}

// TestCampaignRunAllEmpty: an empty batch has no item to complete the
// set, so the fan-out must return without waiting for one.
func TestCampaignRunAllEmpty(t *testing.T) {
	results, err := NewCampaign(BenchScale).RunAll(context.Background(), nil)
	if err != nil || len(results) != 0 {
		t.Fatalf("RunAll(nil) = %d results, %v; want none and no error", len(results), err)
	}
}

// TestCampaignParallelAbortedNeverWins races a failing item against 63
// siblings that spin until the abort flag rises and then report
// errAborted: the call must return the real failure, never the skip
// marker it caused. A sibling can only overtake the failure in the few
// instructions between raising the flag and sending, so one call exposes
// a wrong order rarely (about one in a thousand on a two-core host); the
// loop runs at least 200 calls and keeps going for a second.
func TestCampaignParallelAbortedNeverWins(t *testing.T) {
	c := NewCampaign(BenchScale)
	boom := errors.New("boom")
	deadline := time.Now().Add(time.Second)
	for iter := 0; iter < 200 || time.Now().Before(deadline); iter++ {
		_, err := c.runParallel(64, func(i int, abort *atomic.Bool) (*Result, error) {
			if i == 0 {
				return nil, boom
			}
			for !abort.Load() {
				runtime.Gosched()
			}
			return nil, errAborted
		})
		if !errors.Is(err, boom) {
			t.Fatalf("iteration %d: err = %v, want %v", iter, err, boom)
		}
	}
}

// TestRunCancelledMidRunReturnsCtxErr pins the cancellation contract of
// the core loop: a context cancelled while the simulation is executing
// surfaces ctx.Err() promptly instead of running to completion.
func TestRunCancelledMidRunReturnsCtxErr(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := time.Now()
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	// A budget far beyond what 30 ms of wall time can simulate.
	_, err := RunConfig(ctx, Config{
		Scenario:     Chain(8),
		Transport:    TransportSpec{Protocol: Vegas},
		Seed:         1,
		TotalPackets: 10_000_000,
		BatchPackets: 1_000_000,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if waited := time.Since(started); waited > 5*time.Second {
		t.Errorf("cancellation took %v to surface, want prompt", waited)
	}
}

// TestRunPreCancelledContext asserts an already-cancelled context never
// starts simulating.
func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunConfig(ctx, Config{
		Scenario:     Chain(2),
		Transport:    TransportSpec{Protocol: Vegas},
		TotalPackets: 1100,
		BatchPackets: 100,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCampaignCancellationDoesNotPoisonCache cancels a campaign run
// mid-flight and then re-runs the same config (same cache key) with a live
// context: the cancelled attempt must not have left a poisoned
// single-flight entry behind.
func TestCampaignCancellationDoesNotPoisonCache(t *testing.T) {
	// A budget big enough that 10 ms of wall time cannot finish it, small
	// enough that the verification rerun stays quick.
	c := NewCampaign(Scale{Name: "mid", TotalPackets: 22000, BatchPackets: 2000, Seed: 1})
	cfg := benchChainCfg(2)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	if _, err := c.Run(ctx, cfg); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	res, err := c.Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("rerun after cancellation failed: %v", err)
	}
	if res == nil || res.Delivered < 22000 {
		t.Errorf("rerun after cancellation returned %+v, want a complete result", res)
	}
}

// gateCC is a registered transport that, when armed by its spec
// (Alpha == 43), announces its transfer's start on started and then holds
// it until release closes: a run the waiter tests keep in flight at will.
// Unarmed specs, as the registry-enumeration tests build them, behave
// like an unarmed panicCC.
type gateCC struct {
	panicCC
	started chan<- struct{}
	release <-chan struct{}
}

func (g *gateCC) OnStart() {
	if g.release != nil {
		select {
		case g.started <- struct{}{}:
		default:
		}
		<-g.release
	}
	g.panicCC.OnStart()
}

var (
	registerGate sync.Once
	// gateStarted and gateRelease are the channels armed gateCC instances
	// bind; holdGate replaces them before any run starts.
	gateStarted chan struct{}
	gateRelease chan struct{}
)

func gateCCFactory(spec TransportSpec) (CongestionControl, error) {
	if spec.Alpha != 43 {
		return &gateCC{}, nil
	}
	return &gateCC{started: gateStarted, release: gateRelease}, nil
}

// holdGate returns a config whose runs hold at their start, announcing it
// on gateStarted, until the returned release is called (at the latest
// when the test ends).
func holdGate(t *testing.T) (Config, func()) {
	registerGate.Do(func() { RegisterTransport("gate-onstart", gateCCFactory) })
	rel := make(chan struct{})
	gateStarted, gateRelease = make(chan struct{}, 1), rel
	var once sync.Once
	release := func() { once.Do(func() { close(rel) }) }
	t.Cleanup(release)
	cfg := benchChainCfg(2)
	cfg.Transport = TransportSpec{Name: "gate-onstart", Alpha: 43}
	cfg.TotalPackets, cfg.BatchPackets = 5500, 500
	return cfg, release
}

// TestCampaignWaiterHoldsNoSlot: a duplicate of a run in flight waits for
// it without taking a worker slot, so with two workers a third config
// still runs while the first is held and its duplicate waits.
func TestCampaignWaiterHoldsNoSlot(t *testing.T) {
	held, release := holdGate(t)
	c := NewCampaign(BenchScale, WithWorkers(2))
	ctx := context.Background()
	var results [2]*Result
	errs := make(chan error, len(results))
	for i := range results {
		go func() {
			var err error
			results[i], err = c.Run(ctx, held)
			errs <- err
		}()
		if i == 0 {
			<-gateStarted
		}
	}
	// Give the duplicate time to reach its wait: where a waiter took a
	// slot, it would now hold the second one.
	time.Sleep(50 * time.Millisecond)
	other := make(chan error, 1)
	go func() {
		_, err := c.Run(ctx, benchChainCfg(3))
		other <- err
	}()
	select {
	case err := <-other:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a third config starved while a duplicate waited on a held run")
	}
	release()
	for range results {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if results[0] != results[1] {
		t.Error("the duplicate did not share the held run's result")
	}
	if n := c.Executed(); n != 2 {
		t.Errorf("executed %d, want 2 (the held config once, the third once)", n)
	}
}

// TestCampaignWaiterOutlivesCancelledOwner: cancelling the run a
// duplicate waits on ends only the owner's call; the duplicate, whose
// context is live, runs the config itself and returns a complete result.
func TestCampaignWaiterOutlivesCancelledOwner(t *testing.T) {
	held, release := holdGate(t)
	c := NewCampaign(BenchScale, WithWorkers(2))
	ownerCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ownerErr := make(chan error, 1)
	go func() {
		_, err := c.Run(ownerCtx, held)
		ownerErr <- err
	}()
	<-gateStarted
	var dupRes *Result
	dupErr := make(chan error, 1)
	go func() {
		var err error
		dupRes, err = c.Run(context.Background(), held)
		dupErr <- err
	}()
	// Give the duplicate time to start waiting on the owner's run.
	time.Sleep(50 * time.Millisecond)
	cancel()
	release()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled owner returned %v, want context.Canceled", err)
	}
	if err := <-dupErr; err != nil {
		t.Fatalf("duplicate with a live context returned %v, want a result", err)
	}
	if dupRes == nil || dupRes.Delivered < held.TotalPackets {
		t.Errorf("duplicate returned %+v, want a complete result", dupRes)
	}
	if n := c.Executed(); n != 1 {
		t.Errorf("executed %d, want 1 (the duplicate's own run)", n)
	}
}

// TestCampaignCountsStoreWriteErrors: a result the store cannot take is
// still returned and is counted, and a fresh campaign over the store runs
// that config again.
func TestCampaignCountsStoreWriteErrors(t *testing.T) {
	ctx := context.Background()
	dir := filepath.Join(t.TempDir(), "store")
	c := NewCampaign(BenchScale, WithStore(dir))
	if err := c.Ready(); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(ctx, benchChainCfg(2))
	if err != nil || res == nil || res.Delivered == 0 {
		t.Fatalf("run over an unwritable store returned %+v, %v; want its result", res, err)
	}
	if n := c.StoreWriteErrors(); n != 1 {
		t.Errorf("StoreWriteErrors = %d, want 1", n)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	fresh := NewCampaign(BenchScale, WithStore(dir))
	if _, err := fresh.Run(ctx, benchChainCfg(2)); err != nil {
		t.Fatal(err)
	}
	if n := fresh.Executed(); n != 1 {
		t.Errorf("fresh campaign executed %d, want 1 (the failed write left nothing to serve)", n)
	}
}

// TestCampaignRunAllCancelled asserts a cancelled context fails a sweep
// with ctx.Err() and leaves the campaign usable.
func TestCampaignRunAllCancelled(t *testing.T) {
	c := NewCampaign(BenchScale)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfgs := []Config{benchChainCfg(2), benchChainCfg(3)}
	if _, err := c.RunAll(ctx, cfgs); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	results, err := c.RunAll(context.Background(), cfgs)
	if err != nil {
		t.Fatalf("campaign unusable after a cancelled sweep: %v", err)
	}
	if len(results) != 2 || results[0] == nil || results[1] == nil {
		t.Fatalf("post-cancel sweep returned %v", results)
	}
}

func TestCampaignSweepAggregatesSeeds(t *testing.T) {
	c := NewCampaign(BenchScale)
	cells, err := c.Sweep(context.Background(), Sweep{
		Scenarios:  []*Scenario{Chain(2)},
		Transports: []TransportSpec{{Protocol: Vegas, Alpha: 2}, {Protocol: NewReno}},
		Rates:      []Rate{Rate2Mbps},
		Seeds:      []int64{1, 2, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 2 {
		t.Fatalf("cells = %d, want 2 (one per transport)", len(cells))
	}
	for _, cell := range cells {
		if len(cell.Runs) != 3 {
			t.Fatalf("%s: runs = %d, want 3 replicates", cell.Transport.Label(), len(cell.Runs))
		}
		if cell.Goodput.N != 3 {
			t.Errorf("%s: goodput estimate over %d replicates, want 3", cell.Transport.Label(), cell.Goodput.N)
		}
		if cell.Goodput.Mean <= 0 {
			t.Errorf("%s: zero goodput", cell.Transport.Label())
		}
		for i, r := range cell.Runs {
			if r.Config.Seed != cell.Seeds[i] {
				t.Errorf("run %d has seed %d, want %d", i, r.Config.Seed, cell.Seeds[i])
			}
			if r.Config.Transport.Protocol != cell.Transport.Protocol {
				t.Errorf("run %d transport %v, want %v", i, r.Config.Transport.Protocol, cell.Transport.Protocol)
			}
		}
	}
}

func TestCampaignSweepNeedsScenario(t *testing.T) {
	c := NewCampaign(BenchScale)
	if _, err := c.Sweep(context.Background(), Sweep{}); err == nil {
		t.Fatal("empty sweep accepted")
	}
}

func TestCampaignRejectsObserver(t *testing.T) {
	c := NewCampaign(BenchScale)
	cfg := benchChainCfg(2)
	cfg.Observer = &Observer{}
	if _, err := c.Run(context.Background(), cfg); err == nil ||
		!strings.Contains(err.Error(), "do not support Config.Observer") {
		t.Fatalf("observer-carrying campaign run returned %v, want a named rejection", err)
	}
}

// storeSweep is the grid the resume tests run: 2 scenarios x 2
// transports x seeds, at a small explicit budget.
func storeSweep(seeds ...int64) Sweep {
	return Sweep{
		Scenarios:  []*Scenario{Chain(2), Chain(3)},
		Transports: []TransportSpec{{Protocol: Vegas, Alpha: 2}, {Protocol: NewReno}},
		Seeds:      seeds,
		Base:       Config{TotalPackets: 550, BatchPackets: 50},
	}
}

// TestCampaignSweepResumesFromStore is the kill-and-resume demo as a
// test: a sweep completed against a store, re-run by a *fresh* campaign
// (fresh process, as far as the store can tell), must execute zero
// simulations; widening the grid executes exactly the new cells.
func TestCampaignSweepResumesFromStore(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	first := NewCampaign(BenchScale, WithStore(dir))
	cells1, err := first.Sweep(ctx, storeSweep(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Executed(); got != 8 {
		t.Fatalf("first sweep executed %d runs, want 8", got)
	}

	// Restart: a new campaign (empty in-memory cache) over the same dir.
	resumed := NewCampaign(BenchScale, WithStore(dir))
	cells2, err := resumed.Sweep(ctx, storeSweep(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Executed(); got != 0 {
		t.Fatalf("resumed sweep executed %d runs, want 0 (all cells completed)", got)
	}
	for i := range cells1 {
		if cells1[i].Key != cells2[i].Key {
			t.Fatalf("cell %d keyed differently across restarts", i)
		}
		a, _ := json.Marshal(cells1[i].Runs)
		b, _ := json.Marshal(cells2[i].Runs)
		if string(a) != string(b) {
			t.Errorf("cell %d: store-loaded runs differ from the originals", i)
		}
	}

	// Widening the seed axis re-runs only the incomplete remainder.
	widened := NewCampaign(BenchScale, WithStore(dir))
	if _, err := widened.Sweep(ctx, storeSweep(1, 2, 3)); err != nil {
		t.Fatal(err)
	}
	if got := widened.Executed(); got != 4 {
		t.Fatalf("widened sweep executed %d runs, want only the 4 seed-3 cells", got)
	}
}

// TestCampaignInterruptedSweepResumes cancels a sweep mid-flight and
// restarts it against the same store: every run that completed before
// the kill must be skipped on resume.
func TestCampaignInterruptedSweepResumes(t *testing.T) {
	dir := t.TempDir()
	sw := storeSweep(1, 2)
	size, err := sw.Size()
	if err != nil {
		t.Fatal(err)
	}
	total := int64(size)

	interrupted := NewCampaign(BenchScale, WithWorkers(1), WithStore(dir))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = interrupted.SweepProgress(ctx, sw, func(ev SweepEvent) {
		if ev.Done == 2 {
			cancel() // kill the campaign after the second completed run
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want context.Canceled", err)
	}

	resumed := NewCampaign(BenchScale, WithStore(dir))
	cells, err := resumed.Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	// At least the two runs observed complete before the cancel were
	// persisted (an in-flight third may have finished too), so the
	// resumed campaign re-runs strictly less than the full grid and the
	// two sweeps together never exceed grid + in-flight slack.
	if got := resumed.Executed(); got > total-2 {
		t.Fatalf("resumed sweep executed %d of %d runs, want <= %d (completed cells skipped)",
			got, total, total-2)
	}
	for _, cell := range cells {
		if cell.Goodput.Mean <= 0 || len(cell.Runs) != 2 {
			t.Fatalf("resumed cell %s incomplete", cell.Transport.Label())
		}
	}
}

// TestCampaignStoreCorruptEntryReruns ends-to-end the corruption
// contract: mangling one stored file costs exactly one re-run, silently.
func TestCampaignStoreCorruptEntryReruns(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	first := NewCampaign(BenchScale, WithStore(dir))
	if _, err := first.Sweep(ctx, storeSweep(1)); err != nil {
		t.Fatal(err)
	}
	if got := first.Executed(); got != 4 {
		t.Fatalf("seed sweep executed %d, want 4", got)
	}
	var victim string
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && victim == "" {
			victim = path
		}
		return nil
	})
	if victim == "" {
		t.Fatal("store holds no files after a sweep")
	}
	if err := os.Truncate(victim, 10); err != nil {
		t.Fatal(err)
	}
	resumed := NewCampaign(BenchScale, WithStore(dir))
	if _, err := resumed.Sweep(ctx, storeSweep(1)); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Executed(); got != 1 {
		t.Fatalf("after corrupting one entry the resume executed %d runs, want exactly 1", got)
	}
}

func TestCampaignWithStoreBadDirSurfacesError(t *testing.T) {
	// A file where the store directory should be: Open must fail, and the
	// failure must surface from the campaign's entry points.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCampaign(BenchScale, WithStore(filepath.Join(file, "store")))
	if err := c.Ready(); err == nil {
		t.Fatal("Ready with an unopenable store reported no error")
	}
	if _, err := c.Run(context.Background(), benchChainCfg(2)); err == nil {
		t.Fatal("campaign with an unopenable store ran anyway")
	}
	if _, err := c.Sweep(context.Background(), storeSweep(1)); err == nil {
		t.Fatal("sweep with an unopenable store ran anyway")
	}

	good := NewCampaign(BenchScale, WithStore(t.TempDir()))
	if err := good.Ready(); err != nil {
		t.Fatalf("Ready with a usable store: %v", err)
	}
}

func TestCellKeyAddressing(t *testing.T) {
	c := NewCampaign(BenchScale)
	sw := storeSweep(1, 2)
	cells, err := c.Sweep(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[CellKey]bool{}
	for _, cell := range cells {
		if cell.Key == "" {
			t.Fatal("sweep cell carries no key")
		}
		if seen[cell.Key] {
			t.Fatalf("duplicate cell key %s", cell.Key)
		}
		seen[cell.Key] = true
		// The key is derivable from the cell's legacy positional fields —
		// the two addressing schemes agree.
		if want := NewCellKey(cell.Scenario, cell.Transport, cell.Rate, cell.LinkModel, cell.Faults, cell.Seeds); cell.Key != want {
			t.Fatalf("cell key %s, want %s", cell.Key, want)
		}
		got, ok := FindCell(cells, cell.Key)
		if !ok || got.Goodput != cell.Goodput {
			t.Fatalf("FindCell(%s) did not return the cell", cell.Key.Hash())
		}
		if h := cell.Key.Hash(); len(h) != 64 {
			t.Fatalf("key hash %q is not hex sha256", h)
		}
	}
	// Independently built equal scenarios address the same cell.
	if k := NewCellKey(Chain(2), TransportSpec{Protocol: Vegas, Alpha: 2}, 0, LinkModelSpec{}, nil, []int64{1, 2}); k != cells[0].Key {
		t.Fatalf("independently built key %s, want %s", k, cells[0].Key)
	}
	if _, ok := FindCell(cells, CellKey("nope")); ok {
		t.Fatal("FindCell invented a cell")
	}
}

func TestCampaignOptionsConfigure(t *testing.T) {
	c := NewCampaign(BenchScale, WithWorkers(3))
	if c.workers != 3 {
		t.Fatalf("options not applied: workers=%d", c.workers)
	}
	if _, err := c.Run(context.Background(), benchChainCfg(2)); err != nil {
		t.Fatal(err)
	}
	if cap(c.slots) != 3 || len(c.slots) != 3 {
		t.Fatalf("initialization ignored the options: %d worker slots holding %d Worlds after a run, want 3 and 3",
			cap(c.slots), len(c.slots))
	}
	for i := 0; i < 3; i++ {
		if <-c.slots == nil {
			t.Fatalf("worker slot %d holds no World", i)
		}
	}
}

// TestOptimalUDPGapProbesPersist runs the paper's pacing search three
// times — again on the same campaign, then from a fresh campaign over the
// same store — and requires both repeats to execute zero simulations
// while agreeing on the gap.
func TestOptimalUDPGapProbesPersist(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	first := NewCampaign(BenchScale, WithStore(dir))
	gap1, err := first.OptimalUDPGap(ctx, 2, Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	// Eight candidates, 1.0·t0 … 1.7·t0: a ninth would change which gap
	// wins and every figure drawn with it.
	if got := first.Executed(); got != 8 {
		t.Fatalf("gap search executed %d probe runs, want 8", got)
	}
	again, err := first.OptimalUDPGap(ctx, 2, Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if got := first.Executed(); got != 8 || again != gap1 {
		t.Fatalf("repeat on the same campaign: gap %v after %d executions, want %v after 8 (served from the cache)", again, got, gap1)
	}
	second := NewCampaign(BenchScale, WithStore(dir))
	gap2, err := second.OptimalUDPGap(ctx, 2, Rate2Mbps)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Executed(); got != 0 {
		t.Fatalf("repeated gap search executed %d probes, want 0 (served from the store)", got)
	}
	if gap1 != gap2 {
		t.Fatalf("gap from the store %v differs from the measured %v", gap2, gap1)
	}
}

func TestCampaignHonorsExplicitBudget(t *testing.T) {
	c := NewCampaign(PaperScale) // 110000 packets by default
	res, err := c.Run(context.Background(), Config{
		Scenario:     Chain(2),
		Transport:    TransportSpec{Protocol: Vegas},
		TotalPackets: 550,
		BatchPackets: 50,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered < 550 || res.Delivered > 1100 {
		t.Errorf("delivered %d packets, want the explicit 550 budget, not the scale's 110000", res.Delivered)
	}
}

// TestSweepSizeChecksEachFactor: four 2^16-entry axes multiply to 2^64,
// which an unchecked int product wraps to 0. Size reports the overflow,
// and Campaign.Sweep returns it before expanding a single config.
func TestSweepSizeChecksEachFactor(t *testing.T) {
	sw := Sweep{Scenarios: []*Scenario{Chain(2)}, Transports: []TransportSpec{{Name: "vegas"}, {Name: "newreno"}}, Seeds: []int64{1, 2, 3}}
	if n, err := sw.Size(); n != 6 || err != nil {
		t.Errorf("1 x 2 x 3 grid: Size = %d, %v, want 6", n, err)
	}
	const n = 1 << 16
	sw.Transports = nil
	sw.Seeds = make([]int64, n)
	sw.Rates = make([]Rate, n)
	sw.LinkModels = make([]LinkModelSpec, n)
	sw.Faults = make([][]FaultSpec, n)
	if got, err := sw.Size(); err == nil || !strings.Contains(err.Error(), "65536 seeds overflows an int") {
		t.Fatalf("four 2^16 axes: Size = %d, %v, want an overflow error", got, err)
	}
	cells, err := NewCampaign(BenchScale).Sweep(context.Background(), sw)
	if err == nil || !strings.Contains(err.Error(), "overflows an int") {
		t.Fatalf("Campaign.Sweep of four 2^16 axes = %d cells, %v, want the overflow error", len(cells), err)
	}
}
