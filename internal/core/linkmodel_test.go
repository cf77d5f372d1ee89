package core

import (
	"fmt"
	"math"
	"testing"
	"time"
)

// --- LinkModelSpec validation: one distinct, actionable message per
// rejected parameter (mirrors the transport-spec validation tests).

func TestValidateUnknownLinkModel(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "fog"}
	wantError(t, cfg, `unknown link model "fog"`, "registered:", "uniform")
}

func TestValidateNegativeLossRate(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "uniform", LossRate: -0.1}
	wantError(t, cfg, "Config.LinkModel", "LossRate -0.1 outside [0,1]")
}

func TestValidateNaNLossRate(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "uniform", LossRate: math.NaN()}
	wantError(t, cfg, "LossRate NaN outside [0,1]")
}

func TestValidateLossRateAboveOne(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "uniform", LossRate: 1.5}
	wantError(t, cfg, "LossRate 1.5 outside [0,1]")
}

func TestValidateBERWithoutFrameBits(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "ber", BER: 1e-5}
	wantError(t, cfg, "FrameBits > 0", "frame length")
}

func TestValidateNegativeFrameBits(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "ber", BER: 1e-5, FrameBits: -1}
	wantError(t, cfg, "negative FrameBits -1")
}

func TestValidateGilbertElliottProbabilities(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "ge", PGoodBad: 1.2}
	wantError(t, cfg, "PGoodBad 1.2 outside [0,1]")
	cfg.LinkModel = LinkModelSpec{Name: "ge", PGoodBad: 0.1, LossBad: math.NaN()}
	wantError(t, cfg, "LossBad NaN outside [0,1]")
}

func TestValidateNegativeJitter(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Jitter: -time.Microsecond}
	wantError(t, cfg, "negative Jitter")
}

func TestValidateJitterBeyondEpoch(t *testing.T) {
	// The default position epoch is 100 ms; jitter beyond it would push
	// arrivals past the positions they were launched from.
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{Name: "uniform", LossRate: 0.01, Jitter: 150 * time.Millisecond}
	wantError(t, cfg, "Jitter 150ms exceeds the position-epoch interval 100ms")
}

func TestValidateJitterWithinCustomEpoch(t *testing.T) {
	// Raising Mobility.UpdateInterval does not lift the MAC bound: a
	// jittered DATA and ACK pair must fit the ACK timeout's one-slot slack.
	cfg := validChain()
	cfg.Scenario = Chain(2)
	cfg.Scenario.Mobility.UpdateInterval = 200 * time.Millisecond
	cfg.LinkModel = LinkModelSpec{Name: "uniform", LossRate: 0.01, Jitter: 150 * time.Millisecond}
	wantError(t, cfg, "Jitter 150ms exceeds the bound 10µs, half the MAC slot time")
	cfg.LinkModel.Jitter = maxJitter
	if _, err := Run(cfg); err != nil {
		t.Fatalf("jitter at the %v bound under a 200ms epoch rejected: %v", maxJitter, err)
	}
	// An epoch shorter than the bound still caps the jitter itself.
	cfg.Scenario.Mobility.UpdateInterval = 5 * time.Microsecond
	wantError(t, cfg, "Jitter 10µs exceeds the position-epoch interval 5µs")
}

func TestValidateJitterBeyondMACBound(t *testing.T) {
	cfg := validChain()
	for _, j := range []time.Duration{maxJitter + time.Nanosecond, 20 * time.Microsecond, 5 * time.Millisecond} {
		cfg.LinkModel = LinkModelSpec{Jitter: j}
		wantError(t, cfg, fmt.Sprintf("Jitter %v exceeds the bound 10µs", j))
	}
}

func TestValidateCaptureRatioBelowOne(t *testing.T) {
	cfg := validChain()
	cfg.LinkModel = LinkModelSpec{CaptureRatio: 0.5}
	wantError(t, cfg, "CaptureRatio 0.5 below 1")
}

func TestValidateNegativeRTSThreshold(t *testing.T) {
	cfg := validChain()
	cfg.RTSThreshold = -1
	wantError(t, cfg, "negative RTSThreshold -1")
}

// --- Behavior under impairment.

// TestUniformLossDegradesGoodput locks the subsystem end to end: frame
// loss must actually reach TCP. At 5% uniform frame loss on a 2-hop
// chain the MAC absorbs most of it, but goodput must drop measurably
// and the impaired-frame counter must advance.
func TestUniformLossDegradesGoodput(t *testing.T) {
	base := validChain()
	clean, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	lossy := validChain()
	lossy.LinkModel = UniformLossModel(0.05)
	impaired, err := Run(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if impaired.ImpairedFrames == 0 {
		t.Fatal("5% uniform loss impaired no frames")
	}
	if clean.ImpairedFrames != 0 {
		t.Fatalf("perfect channel impaired %d frames", clean.ImpairedFrames)
	}
	if impaired.AggGoodput.Mean >= clean.AggGoodput.Mean {
		t.Errorf("goodput did not degrade: %.0f lossy vs %.0f clean bit/s",
			impaired.AggGoodput.Mean, clean.AggGoodput.Mean)
	}
}

// TestRTSThresholdSpeedsUpCleanChain sanity-checks basic access: on a
// clean short chain, skipping the handshake removes two frames per hop
// and must not hurt goodput.
func TestRTSThresholdChangesMACBehavior(t *testing.T) {
	cfg := validChain()
	cfg.RTSThreshold = 4096
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AggGoodput.Mean <= 0 {
		t.Fatal("no goodput under basic access")
	}
	if res.Delivered < cfg.TotalPackets {
		t.Errorf("delivered %d of %d packets", res.Delivered, cfg.TotalPackets)
	}
}

// lossyConfig is the determinism workhorse: bursty loss, jitter, and an
// overridden capture ratio all active at once on a 3-hop chain.
func lossyConfig(seed int64) Config {
	return Config{
		Scenario: Chain(3),
		Transport: TransportSpec{
			Protocol: ProtoNewReno,
		},
		Seed:         seed,
		TotalPackets: 880,
		BatchPackets: 80,
		LinkModel: LinkModelSpec{
			Name:     "gilbert-elliott",
			PGoodBad: 0.02, PBadGood: 0.3, LossBad: 0.5,
			Jitter:       10 * time.Microsecond,
			CaptureRatio: 4,
		},
	}
}

// TestImpairedRunsDeterministicPerSeed: two fresh runs of the same
// impaired config must be byte-identical; a different seed must diverge.
func TestImpairedRunsDeterministicPerSeed(t *testing.T) {
	a, err := Run(lossyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(lossyConfig(7))
	if err != nil {
		t.Fatal(err)
	}
	if sa, sb := digest(t, a), digest(t, b); sa != sb {
		t.Errorf("same seed diverged:\n  %s\n  %s", sa, sb)
	}
	c, err := Run(lossyConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if digest(t, a) == digest(t, c) {
		t.Error("different seeds produced identical impaired runs")
	}
}

// TestImpairedArenaReuseByteIdentical: a World reused across impaired
// runs — including across different impairment specs — must reproduce
// fresh results exactly.
func TestImpairedArenaReuseByteIdentical(t *testing.T) {
	w := NewWorld()
	// Interleave specs so every arena run starts from a dirtied arena.
	cfgs := []Config{lossyConfig(7), lossyConfig(9)}
	uni := lossyConfig(7)
	uni.LinkModel = UniformLossModel(0.03)
	cfgs = append(cfgs, uni, lossyConfig(7))
	for i, cfg := range cfgs {
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arena, err := w.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if sf, sa := digest(t, fresh), digest(t, arena); sf != sa {
			t.Errorf("run %d: arena diverged from fresh:\n  fresh: %s\n  arena: %s", i, sf, sa)
		}
	}
}

// TestLossyConformanceAllTransports is the lossy conformance matrix:
// every registered transport runs under every registered link model
// (with usable parameters filled in), and each impaired run must be
// byte-identical between a fresh build and a reused arena while still
// delivering its packet budget. This is the grid the -race CI job
// sweeps.
func TestLossyConformanceAllTransports(t *testing.T) {
	models := []LinkModelSpec{
		{},                                  // perfect
		UniformLossModel(0.02),              // uniform
		BERModel(1e-5, 8*(1500+52)),         // ber over a max-size frame
		GilbertElliottModel(0.02, 0.3, 0.5), // bursty
		{Name: "distance", Jitter: 10 * time.Microsecond},
	}
	w := NewWorld()
	for _, spec := range worldSpecs() {
		for _, lm := range models {
			cfg := Config{
				Scenario:     Chain(2),
				Transport:    spec,
				Seed:         3,
				TotalPackets: 550,
				BatchPackets: 50,
				LinkModel:    lm,
			}
			label := spec.Name + "/" + lm.Label()
			fresh, err := Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			arena, err := w.Run(cfg)
			if err != nil {
				t.Fatalf("%s (arena): %v", label, err)
			}
			if digest(t, fresh) != digest(t, arena) {
				t.Errorf("%s: arena run diverged from fresh run", label)
			}
			if fresh.Delivered < cfg.TotalPackets {
				t.Errorf("%s: delivered %d of %d packets", label, fresh.Delivered, cfg.TotalPackets)
			}
		}
	}
}
