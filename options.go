package manetsim

// CampaignOption configures a Campaign at construction (NewCampaign).
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
