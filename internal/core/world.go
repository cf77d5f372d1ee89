package core

import (
	"context"

	"manetsim/internal/sim"
	"manetsim/internal/stats"
)

// World is a reusable run arena: it keeps every allocation a simulation
// run makes — the scheduler's event heap, the channel with its spatial
// grid and transmission records, the per-node MAC/routing stacks, the transport
// engines, the packet pool — and rewinds all of it in place for the next
// run instead of rebuilding from scratch. Results are byte-identical to
// fresh runs of the same Config: every layer's constructor ends with the
// Reset a reused arena calls, so each initial state is written once.
//
// A World is not safe for concurrent use (each run owns its state
// exclusively, like the single-threaded scheduler underneath), but
// separate Worlds run concurrently without restriction; each of a
// Campaign's worker slots carries one. A fresh run is a World used once:
// the package-level RunContext is exactly that.
//
// Shape changes between runs are handled transparently: a run whose node
// count differs rebuilds the stacks, a static-routed run whose placement
// changed recomputes routes, and flow-slot reuse rebinds the transport to
// the new flow's endpoints. Only what changed is rebuilt.
type World struct {
	s *scenarioState
}

// NewWorld returns an empty arena. The first run builds the full state;
// subsequent runs reuse it.
func NewWorld() *World { return &World{} }

// Run executes one configured simulation on the arena. See RunContext.
func (w *World) Run(cfg Config) (*Result, error) {
	return w.RunContext(context.Background(), cfg)
}

// RunContext executes one configured simulation on the arena under ctx;
// cancellation is polled as the package-level RunContext describes. Every
// run takes the same path — reset, then build — and the first run differs
// only in finding nothing to reuse. A build error discards the arena state
// (the next run starts from an empty arena); a cancelled run keeps it,
// since the next reset sweeps whatever the aborted run left behind.
func (w *World) RunContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg = WithDefaults(cfg)
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := w.s
	if s == nil {
		// An empty arena: the scheduler and what is bound to it for life.
		s = &scenarioState{sched: sim.NewScheduler(cfg.Seed)}
		s.deliverFn = s.deliverLocal
		s.delay = stats.NewDurationHistogram(4096, s.sched.Rand().Int63n)
	}
	s.reset(cfg.Seed)
	s.cfg = cfg
	s.obs = cfg.Observer
	if err := s.build(); err != nil {
		// A half-built arena holds layers in mixed generations; safer to
		// drop it than to reason about which resets still apply.
		w.s = nil
		return nil, err
	}
	w.s = s
	return s.finishRun(ctx)
}
