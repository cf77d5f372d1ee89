package manetsim

import "time"

// Option tunes one run-level knob of a simulation. Options apply over the
// paper's defaults: 2 Mbit/s, 110000 packets in batches of 10000, one
// warm-up batch discarded, seed 0, 24h simulated-time bound.
type Option func(*Config)

// WithBandwidth sets the channel bit rate (Rate2Mbps, Rate5_5Mbps or
// Rate11Mbps).
func WithBandwidth(r Rate) Option {
	return func(c *Config) { c.Bandwidth = r }
}

// WithTransport sets the default TransportSpec for every flow that does
// not carry its own.
func WithTransport(t TransportSpec) Option {
	return func(c *Config) { c.Transport = t }
}

// WithSeed sets the random seed; runs are deterministic per seed.
func WithSeed(seed int64) Option {
	return func(c *Config) { c.Seed = seed }
}

// WithPackets sets the measurement budget: deliver total packets split
// into batches of batch (0 batch = total/11, the paper's 11-batch
// structure).
func WithPackets(total, batch int64) Option {
	return func(c *Config) { c.TotalPackets, c.BatchPackets = total, batch }
}

// WithWarmupBatches sets how many leading batches are discarded before
// aggregation (default 1, the paper's methodology).
func WithWarmupBatches(n int) Option {
	return func(c *Config) { c.WarmupBatches = n }
}

// WithMaxSimTime bounds the simulated time; a run that cannot reach its
// packet target by then returns with Result.Truncated set.
func WithMaxSimTime(d time.Duration) Option {
	return func(c *Config) { c.MaxSimTime = d }
}

// WithObserver attaches an Observer to the run.
func WithObserver(o *Observer) Option {
	return func(c *Config) { c.Observer = o }
}

// WithoutCapture disables the PHY's 10 dB capture rule (ablation: any
// overlapping signal within interference range corrupts receptions).
func WithoutCapture() Option {
	return func(c *Config) { c.NoCapture = true }
}

// WithLinkModel applies a link-impairment spec to every link of the run:
// per-frame loss (uniform, BER-derived, Gilbert-Elliott bursts,
// distance-dependent), per-link delay jitter, and the capture-ratio
// override. The zero spec is the perfect channel, the default.
func WithLinkModel(l LinkModelSpec) Option {
	return func(c *Config) { c.LinkModel = l }
}

// WithFaults schedules fault injections for the run: node crashes, link
// blackouts and partitions (or any registered injector), each firing at
// its configured time. Faulted runs stay deterministic per seed — the
// fault transitions draw no randomness — and report resilience metrics
// in Result.Faults. An empty list keeps the run fault-free.
func WithFaults(faults ...FaultSpec) Option {
	return func(c *Config) { c.Faults = append(c.Faults, faults...) }
}

// WithRTSThreshold sets the MAC's dot11RTSThreshold in bytes: unicast
// frames no larger than bytes skip the RTS/CTS handshake and go out as
// basic-access DATA. 0 (the default) keeps the handshake on every frame,
// the paper's setting; any value above the largest frame disables it.
func WithRTSThreshold(bytes int) Option {
	return func(c *Config) { c.RTSThreshold = bytes }
}

// CampaignOption configures a Campaign at construction (NewCampaign),
// mirroring Run's functional options.
type CampaignOption func(*Campaign)

// WithWorkers bounds the campaign's parallel simulations; n <= 0 selects
// the default, GOMAXPROCS. Cache and store hits never occupy a worker
// slot.
func WithWorkers(n int) CampaignOption {
	return func(c *Campaign) { c.workers = n }
}

// WithStore attaches a persistent, content-addressed result store rooted
// at dir (created if needed): every completed run is written to
// <dir>/<aa>/<sha256-of-cache-key>.json via an atomic rename, and every
// run consults the store before simulating. The store is what makes
// sweeps resumable — a killed campaign restarted against the same
// directory re-runs only the cells that never completed — and shareable:
// campaigns in different processes pointed at the same directory see
// each other's results. Stored envelopes are schema-versioned
// (ResultSchemaVersion); entries written by an incompatible binary and
// corrupt files of any kind read as cache misses, never errors. Open
// errors surface from the campaign's first run.
func WithStore(dir string) CampaignOption {
	return func(c *Campaign) { c.storeDir = dir }
}
