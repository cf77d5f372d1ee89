package manetsim

import (
	"context"
	"crypto/sha256"
	"encoding"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"manetsim/internal/core"
	"manetsim/internal/pkt"
	"manetsim/internal/stats"
	"manetsim/internal/store"
)

// ResultSchemaVersion identifies the JSON encoding of Result envelopes in
// the persistent result store. Bump it whenever Result's encoding changes
// incompatibly: stored results carrying any other version are detected
// and treated as cache misses — re-run, never silently misparsed.
//
// Version 2 addresses entries by run id and stores each Result without
// its Config. Version 3 takes the run id over the default-filled config,
// with no Protocol field in its transport; version-1 and version-2 entries
// read as misses and re-run.
const ResultSchemaVersion = 3

// Scale sets a campaign's default per-run measurement budget; configs that
// set their own TotalPackets/BatchPackets/Seed keep them. The scale's
// BatchPackets applies only to configs that set neither TotalPackets nor
// BatchPackets: one with its own total is batched at TotalPackets/11, as a
// direct run is. PaperScale replicates the paper's methodology exactly;
// QuickScale keeps the same 11-batch structure at a tenth of the packets
// for interactive use and CI; BenchScale shrinks it further for
// benchmarks.
type Scale struct {
	Name         string
	TotalPackets int64
	BatchPackets int64
	// Seed is the default seed for configs that do not set one.
	Seed int64
}

// Predefined scales.
var (
	PaperScale = Scale{Name: "paper", TotalPackets: 110000, BatchPackets: 10000, Seed: 1}
	QuickScale = Scale{Name: "quick", TotalPackets: 11000, BatchPackets: 1000, Seed: 1}
	BenchScale = Scale{Name: "bench", TotalPackets: 2200, BatchPackets: 200, Seed: 1}
)

// Campaign executes parameter studies over the simulator: it applies a
// common Scale to every run, deduplicates identical configs through a
// concurrency-safe single-flight cache, bounds parallel execution, and
// aggregates seed replications into confidence intervals. A Campaign is
// safe for concurrent use; runs sharing it share its cache, so sweeps that
// overlap (e.g. figures plotting different metrics of the same runs) pay
// for each simulation once. Each worker slot carries its own reusable
// World, so seed replicates rewind one arena per worker instead of
// rebuilding the network for every run.
type Campaign struct {
	Scale Scale

	// workers bounds parallel simulations (WithWorkers; default
	// GOMAXPROCS).
	workers int

	// storeDir, when set via WithStore, roots the persistent result
	// store; the store itself opens at init so open errors surface from
	// the first run instead of panicking in the option.
	storeDir string
	store    *store.Store
	storeErr error

	// executed counts simulations actually run by this campaign —
	// in-memory cache hits and persistent-store hits excluded.
	executed atomic.Int64
	// storeWriteErrors counts completed results the store failed to
	// persist (see storePut).
	storeWriteErrors atomic.Int64

	// cache holds one single-flight entry per run identity: the SHA-256 of
	// the run's Config.CacheKey(), the very bytes the store hex-encodes for
	// its file name, so memory and disk address a run alike without the
	// multi-kilobyte key string staying resident.
	mu    sync.Mutex
	cache map[[32]byte]*cacheEntry
	once  sync.Once

	// slots holds one World per worker. A run receives a World to start,
	// runs on it, and sends it back when done, so the channel is both the
	// parallelism bound and the arena pool, and no two runs share a World.
	slots chan *core.World
}

// NewCampaign creates a campaign at the given scale. Options configure
// the service-level knobs: WithWorkers (parallelism) and WithStore (the
// persistent, restart-surviving result store).
func NewCampaign(scale Scale, opts ...CampaignOption) *Campaign {
	c := &Campaign{Scale: scale}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// Ready forces the campaign's lazy initialization and reports any
// configuration error that could not be reported where it was made — most
// usefully an unusable WithStore directory, which opens here. Every
// Run/Sweep surfaces the same error on first use; Ready is exported so
// long-running services ("manetsim serve") can fail fast at startup
// instead of on the first submitted sweep.
func (c *Campaign) Ready() error {
	c.once.Do(func() {
		if c.workers <= 0 {
			c.workers = runtime.GOMAXPROCS(0)
		}
		c.slots = make(chan *core.World, c.workers)
		for i := 0; i < c.workers; i++ {
			c.slots <- core.NewWorld()
		}
		c.cache = make(map[[32]byte]*cacheEntry)
		if c.storeDir != "" {
			c.store, c.storeErr = store.Open(c.storeDir, ResultSchemaVersion)
		}
	})
	return c.storeErr
}

// Executed returns how many simulations this campaign actually ran —
// results served from the in-memory cache or the persistent store are
// not counted. It is the observable behind resumable sweeps: re-running
// a completed sweep against the same store executes zero simulations.
func (c *Campaign) Executed() int64 { return c.executed.Load() }

// StoreWriteErrors returns how many completed results this campaign
// failed to persist to its store (full disk, permissions, a removed
// directory). Each such run returned its result normally but will be
// re-run by a fresh campaign over the same store.
func (c *Campaign) StoreWriteErrors() int64 { return c.storeWriteErrors.Load() }

// storedResult is a Result as the store holds it: its Config field is
// shadowed by an always-nil one, so the payload omits the scenario the
// run's id already stands for, and the caller re-attaches it on a hit.
type storedResult struct {
	Result
	Config *struct{} `json:",omitempty"`
}

// storePut persists a completed result, best-effort: the store is a
// cache, so a failed write (full disk, permissions) costs a future
// re-run, never the current result. Failures are counted
// (StoreWriteErrors).
func (c *Campaign) storePut(id [32]byte, res *Result) {
	if c.store == nil {
		return
	}
	if err := c.store.Save(id, storedResult{Result: *res}); err != nil {
		c.storeWriteErrors.Add(1)
	}
}

// errPanicked marks a run whose simulation panicked (a registered
// transport or fault injector with a bug). The panic is confined to its
// own run: it becomes that run's error, and the worker slot gets a fresh
// World in place of the one the run used, so possibly-corrupt arena state
// never reaches a later run.
var errPanicked = errors.New("manetsim: simulation panicked")

// runCore executes one canonical config on w, the World of the worker
// slot its caller holds, and turns a panic into an errPanicked error.
func runCore(ctx context.Context, w *core.World, cfg Config) (res *Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, fmt.Errorf("%w: %v", errPanicked, p)
		}
	}()
	return w.RunContext(ctx, cfg)
}

// canonical is the one form of a config the campaign runs, keys, stores
// and reports: the scale fills the unset budget and seed, then
// WithDefaults fills every other unset knob, so configs that run alike
// share one run id. Explicit per-config values win. The scale's
// BatchPackets applies only when the config sets neither TotalPackets nor
// BatchPackets: a config that brings its own total is batched at
// TotalPackets/11, as a direct run is.
func (c *Campaign) canonical(cfg Config) Config {
	if cfg.TotalPackets == 0 && cfg.BatchPackets == 0 {
		cfg.BatchPackets = c.Scale.BatchPackets
	}
	if cfg.TotalPackets == 0 {
		cfg.TotalPackets = c.Scale.TotalPackets
	}
	if cfg.Seed == 0 {
		cfg.Seed = c.Scale.Seed
	}
	return core.WithDefaults(cfg)
}

// errCampaignObserver rejects observers on campaign runs: a cached result
// is returned without re-running (so the observer would silently see
// nothing), and parallel sweep runs would invoke one observer from many
// goroutines, breaking Observer's single-threaded contract.
var errCampaignObserver = errors.New("manetsim: campaign runs do not support Config.Observer — results may be served from the shared cache without re-running, and sweeps run in parallel; attach observers to direct Run calls instead")

// errAborted marks work skipped because an earlier item in the same
// fan-out already failed. It never escapes runParallel: a failing item
// sends its error before it raises the abort flag, so the first real
// error is always received ahead of any errAborted.
var errAborted = errors.New("manetsim: campaign run skipped after an earlier failure")

// runParallel is the shared fan-out: it executes work(i) for every i in
// [0,n) on its own goroutine and returns the results in input order.
// Bounding comes from the worker slot runByID receives, so cache hits
// never wait for one.
//
// The first error returns immediately — the caller does not wait for the
// remaining items. In-flight simulations cannot be preempted and finish
// in the background (their cache entries stay valid), but queued work
// that has not received a slot yet observes the abort flag and is
// skipped. The caller receives once: every failing item sends its error,
// and the item that completes the set sends nil. Successes only count
// down, so a grid of cache hits wakes the caller once, not once per item.
// The channel has room for all n sends, so no straggler ever blocks.
func (c *Campaign) runParallel(n int, work func(i int, abort *atomic.Bool) (*Result, error)) ([]*Result, error) {
	results := make([]*Result, n)
	if n == 0 {
		return results, nil
	}
	var (
		abort atomic.Bool
		left  atomic.Int64
	)
	left.Store(int64(n))
	errc := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			res, err := work(i, &abort)
			if err != nil {
				errc <- err
				abort.Store(true)
				return
			}
			results[i] = res
			if left.Add(-1) == 0 {
				errc <- nil
			}
		}()
	}
	if err := <-errc; err != nil {
		return nil, err
	}
	return results, nil
}

// cacheEntry is one single-flight cache slot: the first caller to claim
// it executes the run, concurrent duplicates wait for it without holding
// a worker slot and share the outcome; done is closed once res/err are
// set.
type cacheEntry struct {
	claimed atomic.Bool
	done    chan struct{}
	res     *Result
	err     error
}

// cancelled reports an error that says nothing about the config itself,
// only that the context it ran under ended.
func cancelled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cachedRun runs one canonical config through the cache, keyed by the
// SHA-256 of its CacheKey — the path for configs that arrive one at a
// time (Run, RunAll); sweeps derive the same identity from a per-cell
// keyTemplate instead.
func (c *Campaign) cachedRun(ctx context.Context, cfg Config, abort *atomic.Bool) (*Result, error) {
	return c.runByID(ctx, cfg, sha256.Sum256([]byte(cfg.CacheKey())), abort)
}

// runByID is the one path a canonical config takes to a result: the
// in-memory cache, then — holding a worker slot and its World — the
// persistent store, then the simulator. id is the SHA-256 of
// cfg.CacheKey(), and it addresses the run in memory and on disk alike.
//
// Completed entries return immediately without touching the worker
// slots, and a caller that finds its entry claimed by a run in flight
// waits for it without a slot, so duplicates never starve other configs
// of workers. Cancellation and a raised abort flag are both honoured
// while queued for a slot, leaving the entry unclaimed, and an entry
// whose run was cancelled mid-flight is forgotten — its waiters retry
// under their own contexts — so neither aborts nor cancellations poison
// the cache.
func (c *Campaign) runByID(ctx context.Context, cfg Config, id [32]byte, abort *atomic.Bool) (*Result, error) {
	if cfg.Observer != nil {
		return nil, errCampaignObserver
	}
	for {
		c.mu.Lock()
		e := c.cache[id]
		if e == nil {
			e = &cacheEntry{done: make(chan struct{})}
			c.cache[id] = e
		}
		c.mu.Unlock()
		select {
		case <-e.done:
		default:
			if !e.claimed.Load() {
				var w *core.World
				select {
				case w = <-c.slots:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
				switch {
				case abort != nil && abort.Load():
					c.slots <- w
					return nil, errAborted
				case ctx.Err() != nil:
					c.slots <- w
					return nil, ctx.Err()
				case e.claimed.CompareAndSwap(false, true):
					c.fill(ctx, w, cfg, id, e)
					if errors.Is(e.err, errPanicked) {
						w = core.NewWorld()
					}
					c.slots <- w
					return e.res, e.err
				}
				// Claimed by another caller while this one queued.
				c.slots <- w
			}
			select {
			case <-e.done:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if !cancelled(e.err) {
			return e.res, e.err
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// The owner's context ended, not this caller's: run it again.
	}
}

// fill executes the claimed entry e — the store first, then the
// simulator on w — and publishes the outcome by closing e.done. A stored
// result gets cfg, the canonical config its run recorded, re-attached;
// any miss, decode failure or schema mismatch runs the simulation. A
// cancelled run's entry leaves the cache before done closes, so every
// waiter that retries finds a fresh one.
func (c *Campaign) fill(ctx context.Context, w *core.World, cfg Config, id [32]byte, e *cacheEntry) {
	defer close(e.done)
	if c.store != nil {
		if sr, ok := store.Load[storedResult](c.store, id); ok {
			sr.Result.Config = cfg
			e.res = &sr.Result
			return
		}
	}
	e.res, e.err = runCore(ctx, w, cfg)
	switch {
	case e.err == nil:
		c.executed.Add(1)
		c.storePut(id, e.res)
	case cancelled(e.err):
		c.mu.Lock()
		delete(c.cache, id)
		c.mu.Unlock()
	}
}

// keyTemplate is one sweep cell's Config.CacheKey split around the seed.
// encoding/json writes an int64 with strconv.AppendInt, so the prefix, a
// seed's decimal digits and suffix concatenate to the CacheKey of the
// cell's config with that seed, byte for byte. state is the SHA-256
// state after absorbing the prefix (several kilobytes for a large
// scenario), so a run's identity costs the hash of its seed digits and
// the short suffix only, and no run's key string is ever built.
type keyTemplate struct {
	suffix []byte
	state  []byte
}

// newKeyTemplate builds the template of cfg's cell by encoding it with
// seeds 1 and 2 and splitting at the first byte that differs — the seed
// digit — so no field list is copied from Config.
func newKeyTemplate(cfg Config) *keyTemplate {
	cfg.Seed = 1
	one := []byte(cfg.CacheKey())
	cfg.Seed = 2
	two := cfg.CacheKey()
	i := 0
	for one[i] == two[i] {
		i++
	}
	t := &keyTemplate{suffix: one[i+1:]}
	h := sha256.New()
	h.Write(one[:i])
	// SHA-256 state marshalling cannot fail.
	t.state, _ = h.(encoding.BinaryMarshaler).MarshalBinary()
	return t
}

// id returns the SHA-256 of the cell's CacheKey with the given seed.
func (t *keyTemplate) id(seed int64) (sum [32]byte) {
	h := sha256.New()
	// A state MarshalBinary produced always restores.
	_ = h.(encoding.BinaryUnmarshaler).UnmarshalBinary(t.state)
	var digits [20]byte
	h.Write(strconv.AppendInt(digits[:0], seed, 10))
	h.Write(t.suffix)
	h.Sum(sum[:0])
	return sum
}

// Run executes one config — in its canonical form, scaled to the
// campaign's Scale — through the cache (and, when configured, the
// persistent store).
func (c *Campaign) Run(ctx context.Context, cfg Config) (*Result, error) {
	if err := c.Ready(); err != nil {
		return nil, err
	}
	return c.cachedRun(ctx, c.canonical(cfg), nil)
}

// RunAll executes configs in parallel, preserving order and returning the
// first failure without draining the rest of the sweep.
func (c *Campaign) RunAll(ctx context.Context, cfgs []Config) ([]*Result, error) {
	if err := c.Ready(); err != nil {
		return nil, err
	}
	return c.runParallel(len(cfgs), func(i int, abort *atomic.Bool) (*Result, error) {
		return c.cachedRun(ctx, c.canonical(cfgs[i]), abort)
	})
}

// Sweep is a declarative parameter grid: the cartesian product of
// scenarios, transports, rates and link models, each replicated over
// Seeds. Empty axes
// collapse to the Base config's value (and Seeds to the campaign scale's
// seed), so a Sweep can vary exactly the dimensions under study.
type Sweep struct {
	Scenarios  []*Scenario
	Transports []TransportSpec
	Rates      []Rate
	// LinkModels sweeps link-impairment specs (e.g. a loss-rate ramp built
	// from UniformLossModel). Empty collapses to Base.LinkModel — the
	// perfect channel unless Base sets one.
	LinkModels []LinkModelSpec
	// Faults sweeps fault schedules: each entry is one run's complete
	// fault plan (possibly empty — the fault-free baseline cell). Empty
	// collapses to Base.Faults.
	Faults [][]FaultSpec
	// Seeds replicates every cell; replicate statistics aggregate across
	// them with 95% confidence intervals.
	Seeds []int64
	// Base supplies every remaining run-level knob (MaxSimTime,
	// WarmupBatches, NoCapture, ... and the fallback Transport/Bandwidth).
	// Base.Observer must be nil: campaign runs reject observers, since
	// cached cells never re-run and parallel cells would share one.
	Base Config
}

// CellKey is the canonical, stable address of one sweep cell — the
// scenario x transport x rate point with its seed replication set —
// rendered as the deterministic JSON encoding of those four values. The
// in-memory cache, the on-disk result store and the HTTP results API all
// address cells through it, so the same cell keys identically across
// processes, machines and binaries. Compact derived forms come from
// Hash.
type CellKey string

// NewCellKey derives the canonical key of a cell. Two independently
// built but equal scenario values produce the same key (the encoding
// follows the pointer into nodes and flows). The transport and rate key
// as they run: a zero Alpha or Rate and its default address one cell.
func NewCellKey(scn *Scenario, t TransportSpec, r Rate, lm LinkModelSpec, faults []FaultSpec, seeds []int64) CellKey {
	def := core.WithDefaults(Config{Transport: t, Bandwidth: r})
	t, r = def.Transport, def.Bandwidth
	b, err := json.Marshal(struct {
		Scenario  *Scenario
		Transport TransportSpec
		Rate      Rate
		LinkModel LinkModelSpec
		// Fault-free cells omit the field, so their keys stay
		// byte-identical to ones minted before the fault subsystem.
		Faults []FaultSpec `json:",omitempty"`
		Seeds  []int64
	}{scn, t, r, lm, faults, seeds})
	if err != nil {
		// All components are plain data; encoding cannot fail.
		panic(fmt.Sprintf("manetsim: encoding cell key: %v", err))
	}
	return CellKey(b)
}

// Hash returns the hex SHA-256 of the key: a fixed-width identifier for
// URLs, filenames and logs. The full key remains the source of truth.
func (k CellKey) Hash() string { return store.Hash(string(k)) }

// FindCell returns the cell addressed by key, searching a Sweep's
// result set. It is the canonical lookup; use it instead of relying on
// grid position.
func FindCell(cells []Cell, key CellKey) (*Cell, bool) {
	for i := range cells {
		if cells[i].Key == key {
			return &cells[i], true
		}
	}
	return nil, false
}

// Cell is one point of a sweep grid with its replicated runs and the
// across-replicate estimates of the headline metrics. For a single seed
// the estimates carry the run's value with a zero-width interval.
//
// Key is the cell's canonical address (see CellKey); disk storage, the
// HTTP results API and FindCell all identify cells by it. The
// Scenario/Transport/Rate/Seeds fields and the grid ordering of Sweep's
// return value (scenarios outermost, matching the input axes) are kept
// as the legacy positional access and remain stable for existing
// callers; new code should address cells by Key.
type Cell struct {
	Key CellKey

	Scenario  *Scenario
	Transport TransportSpec
	Rate      Rate
	LinkModel LinkModelSpec
	// Faults is the cell's fault schedule (nil for fault-free cells;
	// omitted from the JSON encoding so pre-fault cell documents stay
	// identical).
	Faults []FaultSpec `json:",omitempty"`
	Seeds  []int64

	// Runs holds one result per seed, in Seeds order.
	Runs []*Result

	// Across-replicate estimates of the per-run batch means.
	Goodput Estimate // aggregate goodput [bit/s]
	Rtx     Estimate // transport retransmissions per delivered packet
	Jain    Estimate // Jain's fairness index
}

// axes returns the sweep's effective transport, rate, link-model, fault
// and seed axes after empty-axis collapse: empty
// Transports/Rates/LinkModels/Faults fall back to the Base config's
// value, empty Seeds to the campaign scale's seed.
func (sw Sweep) axes(scaleSeed int64) (transports []TransportSpec, rates []Rate, linkModels []LinkModelSpec, faults [][]FaultSpec, seeds []int64) {
	transports = sw.Transports
	if len(transports) == 0 {
		transports = []TransportSpec{sw.Base.Transport}
	}
	rates = sw.Rates
	if len(rates) == 0 {
		rates = []Rate{sw.Base.Bandwidth}
	}
	linkModels = sw.LinkModels
	if len(linkModels) == 0 {
		linkModels = []LinkModelSpec{sw.Base.LinkModel}
	}
	faults = sw.Faults
	if len(faults) == 0 {
		faults = [][]FaultSpec{sw.Base.Faults}
	}
	seeds = sw.Seeds
	if len(seeds) == 0 {
		if scaleSeed == 0 {
			scaleSeed = 1
		}
		seeds = []int64{scaleSeed}
	}
	return transports, rates, linkModels, faults, seeds
}

// Size returns how many runs the sweep expands to (cells x seed
// replicates). Each factor is checked before it is multiplied in, so a
// grid too large for an int is an error rather than a wrapped count.
func (sw Sweep) Size() (int, error) {
	return gridSize([6]int{len(sw.Scenarios), len(sw.Transports), len(sw.Rates), len(sw.LinkModels), len(sw.Faults), len(sw.Seeds)})
}

// gridSize is the one rule for a grid's run count, given the lengths of
// its axes in Sweep's order (scenarios, transports, rates, link models,
// fault schedules, seeds): an empty axis past the scenarios collapses to
// one entry, as in axes, and the lengths multiply.
func gridSize(axes [6]int) (int, error) {
	for i := 1; i < len(axes); i++ {
		axes[i] = max(axes[i], 1)
	}
	runs := axes[0]
	for _, n := range axes[1:] {
		if runs > math.MaxInt/n {
			return 0, fmt.Errorf("manetsim: sweep grid of %d scenarios × %d transports × %d rates × %d link models × %d fault schedules × %d seeds overflows an int",
				axes[0], axes[1], axes[2], axes[3], axes[4], axes[5])
		}
		runs *= n
	}
	return runs, nil
}

// SweepEvent reports one completed run of a sweep grid to a progress
// callback: which cell the run belongs to, its seed, and the grid-wide
// completion count. Result is the run's full measurement set. Events
// fire for every completed run — including runs served from the cache or
// the persistent store, which is what makes resumed sweeps report
// complete progress.
type SweepEvent struct {
	Key    CellKey
	Seed   int64
	Done   int // runs completed so far, including this one
	Total  int // total runs in the grid
	Result *Result
}

// Sweep executes the full grid (deduplicated through the cache and, when
// configured, the persistent store, in parallel) and returns one
// aggregated Cell per scenario x transport x rate combination, in grid
// order with scenarios outermost. With a store attached (WithStore) the
// sweep is resumable: completed cells load from disk, so a killed sweep
// restarted against the same store re-runs only the incomplete remainder.
func (c *Campaign) Sweep(ctx context.Context, sw Sweep) ([]Cell, error) {
	return c.SweepProgress(ctx, sw, nil)
}

// SweepProgress is Sweep with a streaming progress callback: onRun is
// invoked once per completed run, serialized (never concurrently) and in
// completion order. A nil onRun is Sweep. The callback must not block
// for long — it is on the completion path of every worker.
func (c *Campaign) SweepProgress(ctx context.Context, sw Sweep, onRun func(SweepEvent)) ([]Cell, error) {
	if err := c.Ready(); err != nil {
		return nil, err
	}
	if len(sw.Scenarios) == 0 {
		return nil, errors.New("manetsim: Sweep needs at least one Scenario")
	}
	if _, err := sw.Size(); err != nil {
		return nil, err
	}
	transports, rates, linkModels, faults, seeds := sw.axes(c.Scale.Seed)
	var cells []Cell
	var cfgs []Config
	// One key template per cell: every seed replicate of the cell keys
	// from it without encoding its config again.
	var keys []*keyTemplate
	for _, scn := range sw.Scenarios {
		for _, t := range transports {
			for _, r := range rates {
				for _, lm := range linkModels {
					for _, fs := range faults {
						cfg := sw.Base
						cfg.Scenario, cfg.Transport, cfg.Bandwidth, cfg.LinkModel, cfg.Faults = scn, t, r, lm, fs
						cfg = c.canonical(cfg)
						cells = append(cells, Cell{
							Key:      NewCellKey(scn, cfg.Transport, cfg.Bandwidth, lm, fs, seeds),
							Scenario: scn, Transport: cfg.Transport, Rate: cfg.Bandwidth, LinkModel: lm, Faults: fs, Seeds: seeds,
						})
						keys = append(keys, newKeyTemplate(cfg))
						for _, seed := range seeds {
							cfg.Seed = seed
							cfgs = append(cfgs, c.canonical(cfg))
						}
					}
				}
			}
		}
	}
	var (
		progressMu sync.Mutex
		done       int
	)
	results, err := c.runParallel(len(cfgs), func(i int, abort *atomic.Bool) (*Result, error) {
		cfg, tmpl := cfgs[i], keys[i/len(seeds)]
		res, err := c.runByID(ctx, cfg, tmpl.id(cfg.Seed), abort)
		if err == nil && onRun != nil {
			progressMu.Lock()
			done++
			onRun(SweepEvent{
				Key:    cells[i/len(seeds)].Key,
				Seed:   seeds[i%len(seeds)],
				Done:   done,
				Total:  len(cfgs),
				Result: res,
			})
			progressMu.Unlock()
		}
		return res, err
	})
	if err != nil {
		return nil, err
	}
	k := 0
	for i := range cells {
		cells[i].Runs = results[k : k+len(seeds)]
		k += len(seeds)
		cells[i].aggregate()
	}
	return cells, nil
}

// aggregate folds the replicated runs into across-seed estimates.
func (cell *Cell) aggregate() {
	n := len(cell.Runs)
	good := make([]float64, n)
	rtx := make([]float64, n)
	jain := make([]float64, n)
	for i, r := range cell.Runs {
		good[i] = r.AggGoodput.Mean
		rtx[i] = r.Rtx.Mean
		jain[i] = r.Jain.Mean
	}
	cell.Goodput = stats.BatchMeans(good)
	cell.Rtx = stats.BatchMeans(rtx)
	cell.Jain = stats.BatchMeans(jain)
}

// OptimalUDPGap finds the paced-UDP inter-packet time that maximizes
// goodput for a chain of the given hop count, following the paper's
// procedure: start from the analytic 4-hop propagation delay t0 and
// increase t gradually, keeping the best measured goodput. The candidates
// are the eight gaps 1.0·t0, 1.1·t0, … 1.7·t0, each probed with a quarter
// of the campaign's packets in 11 batches. The probes are campaign runs: a
// repeated search is served from the cache, and with a store attached
// (WithStore) from disk, so it executes zero simulations even in a fresh
// process.
func (c *Campaign) OptimalUDPGap(ctx context.Context, hops int, rate Rate) (time.Duration, error) {
	t0 := FourHopPropagationDelay(rate)
	if hops < 4 {
		// Short chains have no 4-hop pipelining: the whole chain is one
		// contention domain, so start from the serial per-hop cost.
		t0 = time.Duration(hops) * ExchangeTime(rate, pkt.TCPDataSize)
	}
	cfgs := make([]Config, 8)
	for i := range cfgs {
		cfgs[i] = Config{
			Scenario:  Chain(hops),
			Bandwidth: rate,
			Transport: TransportSpec{
				Name:   "pacedudp",
				UDPGap: time.Duration(float64(t0) * float64(10+i) / 10).Round(100 * time.Microsecond),
			},
			TotalPackets: c.Scale.TotalPackets / 4,
		}
	}
	results, err := c.RunAll(ctx, cfgs)
	if err != nil {
		return 0, err
	}
	best := 0
	for i, res := range results {
		if res.AggGoodput.Mean > results[best].AggGoodput.Mean {
			best = i
		}
	}
	return cfgs[best].Transport.UDPGap, nil
}
