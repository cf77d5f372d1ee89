package stats

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"time"
)

func newTestHist(cap int) *DurationHistogram {
	rng := rand.New(rand.NewSource(1))
	return NewDurationHistogram(cap, rng.Int63n)
}

func TestHistogramExactSmall(t *testing.T) {
	h := newTestHist(100)
	for i := 1; i <= 10; i++ {
		h.Add(time.Duration(i) * time.Millisecond)
	}
	if h.N() != 10 {
		t.Errorf("N = %d, want 10", h.N())
	}
	if h.Mean() != 5500*time.Microsecond {
		t.Errorf("mean = %v, want 5.5ms", h.Mean())
	}
	if h.Max() != 10*time.Millisecond {
		t.Errorf("max = %v, want 10ms", h.Max())
	}
	if q := h.Quantile(0.5); q < 5*time.Millisecond || q > 6*time.Millisecond {
		t.Errorf("p50 = %v, want ~5-6ms", q)
	}
	if q := h.Quantile(1); q != 10*time.Millisecond {
		t.Errorf("p100 = %v, want max", q)
	}
	if q := h.Quantile(0); q != time.Millisecond {
		t.Errorf("p0 = %v, want min", q)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := newTestHist(10)
	if h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
}

func TestHistogramReservoirBounded(t *testing.T) {
	h := newTestHist(64)
	for i := 0; i < 10000; i++ {
		h.Add(time.Duration(i) * time.Microsecond)
	}
	if len(h.samples) != 64 {
		t.Errorf("kept %d samples, want 64", len(h.samples))
	}
	if h.N() != 10000 {
		t.Errorf("N = %d, want 10000 (exact count preserved)", h.N())
	}
	// The reservoir median of a uniform ramp is near the middle.
	p50 := h.Quantile(0.5)
	if p50 < 2*time.Millisecond || p50 > 8*time.Millisecond {
		t.Errorf("reservoir p50 = %v, want roughly 5ms", p50)
	}
}

func TestHistogramPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"zero cap": func() { NewDurationHistogram(0, func(int64) int64 { return 0 }) },
		"nil rng":  func() { NewDurationHistogram(4, nil) },
		"bad q": func() {
			h := newTestHist(4)
			h.Add(time.Second)
			h.Quantile(1.5)
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestQuickHistogramQuantileBounds(t *testing.T) {
	f := func(raw []uint16, qRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		h := newTestHist(32)
		var min, max time.Duration = 1 << 62, 0
		for _, r := range raw {
			d := time.Duration(r) * time.Microsecond
			h.Add(d)
			if d < min {
				min = d
			}
			if d > max {
				max = d
			}
		}
		q := float64(qRaw%101) / 100
		v := h.Quantile(q)
		return v >= min && v <= max && h.Max() == max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickQuantileSortsKeptSamples property-checks that a quantile is the
// q-th order statistic of the samples kept at query time, in reservoir mode
// too: reservoir replacements, Adds between queries and a Reset all
// invalidate the sorted copy that queries in between share.
func TestQuickQuantileSortsKeptSamples(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewDurationHistogram(1+rng.Intn(64), rng.Int63n)
		for round := range 1 + rng.Intn(8) {
			count := rng.Intn(200)
			if round > 0 && rng.Intn(4) == 0 {
				if rng.Intn(2) == 0 {
					// As many Adds as before the Reset: a sorted copy that
					// survived it would look current.
					count = int(h.N())
				}
				h.Reset()
			}
			for range count {
				h.Add(time.Duration(rng.Int63n(int64(time.Second))))
			}
			kept := slices.Clone(h.samples)
			slices.Sort(kept)
			for _, q := range []float64{0, 0.5, 0.95, 1, rng.Float64()} {
				want := time.Duration(0)
				if len(kept) > 0 {
					want = kept[int(q*float64(len(kept)-1))]
				}
				if got := h.Quantile(q); got != want {
					t.Logf("seed %d: Quantile(%v) = %v, want %v", seed, q, got, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
