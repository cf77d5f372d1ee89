package manetsim

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

// keySeeds are the seeds every template is checked at: zero, the signs,
// the one-to-two-digit boundary and both int64 extremes.
var keySeeds = []int64{0, 1, -1, 9, 10, math.MinInt64, math.MaxInt64}

// randomKeyConfig is a testing/quick input: a random Config touching
// every part of the encoding, and one more random seed.
type randomKeyConfig struct {
	Cfg  Config
	Seed int64
}

func (randomKeyConfig) Generate(r *rand.Rand, _ int) reflect.Value {
	seed := r.Int63() >> r.Intn(63)
	if r.Intn(2) == 0 {
		seed = -seed
	}
	return reflect.ValueOf(randomKeyConfig{Cfg: randomConfig(r), Seed: seed})
}

// randomConfig draws a config across scenario shapes, transports,
// link models, fault schedules and the run-level knobs.
func randomConfig(r *rand.Rand) Config {
	var scn *Scenario
	switch r.Intn(6) {
	case 0:
		scn = Chain(1 + r.Intn(8))
	case 1:
		scn = Grid()
	case 2:
		scn = Random()
	case 3:
		scn = HiddenTerminal()
	case 4:
		scn = RandomField(2+r.Intn(40), randFloat(r), randFloat(r), r.Intn(5))
	default:
		scn = NewScenario(randString(r))
		n := 1 + r.Intn(12)
		for i := 0; i < n; i++ {
			scn.AddNode(randFloat(r), randFloat(r))
		}
		for i := r.Intn(4); i > 0; i-- {
			f := Flow{Src: NodeID(r.Intn(n)), Dst: NodeID(r.Intn(n)), Start: randDuration(r)}
			if r.Intn(2) == 0 {
				f.Transport = randomTransport(r)
			}
			scn.Add(f)
		}
	}
	scn.Routing = RoutingKind(r.Intn(2))
	if r.Intn(3) == 0 {
		scn.Mobility = MobilitySpec{
			Kind:     MobilityRandomWaypoint,
			MinSpeed: randFloat(r), MaxSpeed: randFloat(r), Pause: randDuration(r),
			FieldWidth: randFloat(r), FieldHeight: randFloat(r),
			PinFlowEndpoints: r.Intn(2) == 0, UpdateInterval: randDuration(r),
		}
	}
	cfg := Config{
		Scenario:      scn,
		Bandwidth:     []Rate{0, Rate2Mbps, Rate5_5Mbps, Rate11Mbps}[r.Intn(4)],
		Transport:     randomTransport(r),
		TotalPackets:  r.Int63n(200000),
		BatchPackets:  r.Int63n(20000),
		WarmupBatches: r.Intn(3),
		NoCapture:     r.Intn(2) == 0,
		RTSThreshold:  r.Intn(3) * r.Intn(2000),
		MaxSimTime:    randDuration(r),
	}
	switch r.Intn(5) {
	case 1:
		cfg.LinkModel = UniformLossModel(r.Float64())
	case 2:
		cfg.LinkModel = BERModel(randFloat(r), r.Intn(12000))
	case 3:
		cfg.LinkModel = GilbertElliottModel(r.Float64(), r.Float64(), r.Float64())
	case 4:
		cfg.LinkModel = LinkModelSpec{Name: "distance", Jitter: randDuration(r), CaptureRatio: randFloat(r)}
	}
	for i := r.Intn(4); i > 0; i-- {
		switch r.Intn(3) {
		case 0:
			cfg.Faults = append(cfg.Faults, CrashFault(r.Intn(20), randDuration(r), randDuration(r)))
		case 1:
			cfg.Faults = append(cfg.Faults, BlackoutFault(r.Intn(20), r.Intn(20), randDuration(r), randDuration(r)))
		default:
			f := PartitionFault(randFloat(r), randDuration(r), randDuration(r))
			if r.Intn(2) == 0 {
				f.Axis, f.NodesA = "y", []int{r.Intn(20), r.Intn(20)}
			}
			cfg.Faults = append(cfg.Faults, f)
		}
	}
	return cfg
}

// randomTransport selects by registry Name (or none), with random knobs
// and Params.
func randomTransport(r *rand.Rand) TransportSpec {
	t := TransportSpec{
		AckThinning: r.Intn(2) == 0,
		DelayedAck:  r.Intn(2) == 0,
		Alpha:       r.Intn(5),
		MaxWindow:   r.Intn(9),
		UDPGap:      randDuration(r),
	}
	if r.Intn(2) == 0 {
		t.Name = []string{"vegas", "westwood", "pacing", "NewReno", randString(r)}[r.Intn(5)]
	}
	if r.Intn(2) == 0 {
		t.Params = Params{Beta: r.Intn(5), Gamma: r.Intn(5), BWFilterGain: r.Float64(),
			CoVWeight: randFloat(r), MinPaceGap: randDuration(r)}
	}
	return t
}

// randFloat mixes zero, integers, fractions and magnitudes that encode in
// exponent form.
func randFloat(r *rand.Rand) float64 {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return r.Float64()
	case 2:
		return r.NormFloat64() * 1e3
	case 3:
		return math.Ldexp(r.Float64(), r.Intn(200)-100)
	default:
		return float64(r.Intn(3000))
	}
}

func randDuration(r *rand.Rand) time.Duration {
	if r.Intn(3) == 0 {
		return 0
	}
	return time.Duration(r.Int63n(int64(time.Hour)))
}

// randString includes the characters JSON escapes and invalid UTF-8.
func randString(r *rand.Rand) string {
	alphabet := []string{"a", "Z", "0", " ", "-", `"`, `\`, "<", ">", "&", " ", "é", "世", "😀", "\t", "\n", "\xff"}
	s := ""
	for i := r.Intn(8); i > 0; i-- {
		s += alphabet[r.Intn(len(alphabet))]
	}
	return s
}

// TestKeyTemplateMatchesCacheKey is the identity property behind sweep
// keying: for random configs and seeds, a cell's template yields exactly
// the SHA-256 of CacheKey() — the run id that names the store's file — so
// a sweep, Run and the store address every run alike.
func TestKeyTemplateMatchesCacheKey(t *testing.T) {
	prop := func(in randomKeyConfig) bool {
		tmpl := newKeyTemplate(in.Cfg)
		for _, seed := range append(keySeeds, in.Seed) {
			cfg := in.Cfg
			cfg.Seed = seed
			want := cfg.CacheKey()
			if tmpl.id(seed) != sha256.Sum256([]byte(want)) {
				t.Errorf("seed %d: template id is not the SHA-256 of CacheKey %s", seed, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestCampaignSweepAndRunShareIdentity: a sweep and single-config runs
// address a run alike, in memory and on disk, in either order. Seed 0 in
// the sweep falls back to the scale's seed, so it is the member config
// with Seed 1.
func TestCampaignSweepAndRunShareIdentity(t *testing.T) {
	ctx := context.Background()
	sw := Sweep{
		Scenarios:  []*Scenario{Chain(2)},
		Transports: []TransportSpec{{Name: "vegas", Alpha: 2}},
		Seeds:      []int64{0, 2},
		Base:       Config{TotalPackets: 550, BatchPackets: 50},
	}
	members := []Config{
		{Scenario: Chain(2), Transport: TransportSpec{Name: "vegas", Alpha: 2}, TotalPackets: 550, BatchPackets: 50, Seed: BenchScale.Seed},
		{Scenario: Chain(2), Transport: TransportSpec{Name: "vegas", Alpha: 2}, TotalPackets: 550, BatchPackets: 50, Seed: 2},
	}
	encode := func(rs []*Result) string {
		b, err := json.Marshal(rs)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	t.Run("sweep then run", func(t *testing.T) {
		dir := t.TempDir()
		c := NewCampaign(BenchScale, WithStore(dir))
		cells, err := c.Sweep(ctx, sw)
		if err != nil {
			t.Fatal(err)
		}
		swept := cells[0].Runs
		res, err := c.Run(ctx, members[0])
		if err != nil {
			t.Fatal(err)
		}
		all, err := c.RunAll(ctx, members[1:])
		if err != nil {
			t.Fatal(err)
		}
		if res != swept[0] || all[0] != swept[1] {
			t.Error("Run/RunAll of swept configs were not served from memory")
		}
		if n := c.Executed(); n != 2 {
			t.Errorf("executed %d, want the sweep's 2", n)
		}
		fresh := NewCampaign(BenchScale, WithStore(dir))
		got, err := fresh.RunAll(ctx, members)
		if err != nil {
			t.Fatal(err)
		}
		if n := fresh.Executed(); n != 0 {
			t.Errorf("fresh campaign executed %d swept configs, want 0 (served from the store)", n)
		}
		if encode(got) != encode(swept) {
			t.Error("store-served runs differ from the swept ones")
		}
	})

	t.Run("run then sweep", func(t *testing.T) {
		dir := t.TempDir()
		c := NewCampaign(BenchScale, WithStore(dir))
		runs, err := c.RunAll(ctx, members)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := c.Sweep(ctx, sw)
		if err != nil {
			t.Fatal(err)
		}
		if cells[0].Runs[0] != runs[0] || cells[0].Runs[1] != runs[1] {
			t.Error("the sweep did not serve already-run configs from memory")
		}
		if n := c.Executed(); n != 2 {
			t.Errorf("executed %d, want RunAll's 2", n)
		}
		fresh := NewCampaign(BenchScale, WithStore(dir))
		cells, err = fresh.Sweep(ctx, sw)
		if err != nil {
			t.Fatal(err)
		}
		if n := fresh.Executed(); n != 0 {
			t.Errorf("fresh sweep executed %d already-run configs, want 0 (served from the store)", n)
		}
		if encode(cells[0].Runs) != encode(runs) {
			t.Error("store-served sweep runs differ from the RunAll ones")
		}
	})
}
