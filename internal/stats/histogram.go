package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// DurationHistogram collects duration samples and answers quantile
// queries. It keeps exact samples up to a cap and then switches to
// reservoir sampling, so memory stays bounded on multi-million-packet
// runs while quantiles stay statistically sound. The zero value is not
// ready; create with NewDurationHistogram.
type DurationHistogram struct {
	samples []time.Duration
	cap     int   //manetsim:resetsafe reservoir capacity is a construction parameter
	n       int64 // total observations
	sum     time.Duration
	max     time.Duration
	rng     func(int64) int64 //manetsim:resetsafe injected rng binding stays valid across a scheduler reseed
	// sorted is a sorted copy of samples, taken when n observations had
	// been made: quantile queries between two Adds share one sort.
	sorted   []time.Duration //manetsim:resetsafe scratch, rebuilt whenever sortedAt != n
	sortedAt int64
}

// NewDurationHistogram creates a histogram keeping at most cap samples
// (reservoir). rng must return a uniform value in [0, n); pass the
// scenario RNG's Int63n for deterministic runs.
func NewDurationHistogram(cap int, rng func(int64) int64) *DurationHistogram {
	if cap <= 0 {
		panic("stats: histogram cap must be positive")
	}
	if rng == nil {
		panic("stats: histogram needs an rng")
	}
	h := &DurationHistogram{cap: cap, rng: rng}
	h.Reset()
	return h
}

// Reset forgets all observations while keeping the sample buffer and the
// rng binding (which stays valid across a scheduler reseed);
// NewDurationHistogram ends with it.
func (h *DurationHistogram) Reset() {
	h.samples = h.samples[:0]
	h.n = 0
	h.sum = 0
	h.max = 0
	h.sortedAt = 0
}

// Add records one sample.
func (h *DurationHistogram) Add(d time.Duration) {
	h.n++
	h.sum += d
	if d > h.max {
		h.max = d
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, d)
		return
	}
	// Reservoir: replace a random slot with probability cap/n.
	if idx := h.rng(h.n); idx < int64(h.cap) {
		h.samples[idx] = d
	}
}

// N returns the number of observations.
func (h *DurationHistogram) N() int64 { return h.n }

// Mean returns the exact mean over all observations.
func (h *DurationHistogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Max returns the exact maximum.
func (h *DurationHistogram) Max() time.Duration { return h.max }

// Quantile returns the q-quantile (0 <= q <= 1) estimated from the kept
// samples. Queries between two Adds share one sort of the kept samples,
// into a scratch buffer the histogram keeps.
func (h *DurationHistogram) Quantile(q float64) time.Duration {
	if len(h.samples) == 0 {
		return 0
	}
	if math.IsNaN(q) || q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of range", q))
	}
	if h.sortedAt != h.n {
		h.sorted = append(h.sorted[:0], h.samples...)
		slices.Sort(h.sorted)
		h.sortedAt = h.n
	}
	idx := int(q * float64(len(h.sorted)-1))
	return h.sorted[idx]
}

// String summarizes the distribution.
func (h *DurationHistogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v max=%v",
		h.n, h.Mean().Round(time.Microsecond),
		h.Quantile(0.5).Round(time.Microsecond),
		h.Quantile(0.95).Round(time.Microsecond),
		h.max.Round(time.Microsecond))
}
