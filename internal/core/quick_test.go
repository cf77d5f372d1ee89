package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/stats"
)

// referencePerFlowGoodput is Batch.PerFlowGoodput as it was before the
// aggregate computed each batch's goodput once: a fresh slice per call.
func referencePerFlowGoodput(b Batch) []float64 {
	out := make([]float64, len(b.PerFlowPackets))
	secs := b.Duration().Seconds()
	if secs <= 0 {
		return out
	}
	for i, p := range b.PerFlowPackets {
		out[i] = float64(p) * pkt.TCPPayloadSize * 8 / secs
	}
	return out
}

// referenceAggregate is Result.aggregate as it was before its series moved
// into a reused buffer: per-flow goodput computed three times per batch
// (directly, for the aggregate and for Jain) and every series allocated.
func referenceAggregate(r *Result) {
	if len(r.Batches) == 0 {
		return
	}
	nf := len(r.Flows)
	agg := make([]float64, len(r.Batches))
	rtx := make([]float64, len(r.Batches))
	win := make([]float64, len(r.Batches))
	drop := make([]float64, len(r.Batches))
	jain := make([]float64, len(r.Batches))
	perFlow := make([][]float64, nf)
	for i := range perFlow {
		perFlow[i] = make([]float64, len(r.Batches))
	}
	for bi, b := range r.Batches {
		var sum float64
		for _, g := range referencePerFlowGoodput(b) {
			sum += g
		}
		agg[bi] = sum
		rtx[bi] = b.RtxPerDelivered()
		win[bi] = b.MeanWindow()
		drop[bi] = b.DropProbability()
		jain[bi] = stats.JainIndex(referencePerFlowGoodput(b))
		g := referencePerFlowGoodput(b)
		for fi := 0; fi < nf; fi++ {
			perFlow[fi][bi] = g[fi]
		}
		r.FalseRouteFailures += b.FalseRouteFailures
		r.TrueRouteFailures += b.TrueRouteFailures
	}
	r.AggGoodput = stats.BatchMeans(agg)
	r.Rtx = stats.BatchMeans(rtx)
	r.AvgWindow = stats.BatchMeans(win)
	r.DropProb = stats.BatchMeans(drop)
	r.Jain = stats.BatchMeans(jain)
	r.PerFlowGood = make([]stats.Estimate, nf)
	for fi := 0; fi < nf; fi++ {
		r.PerFlowGood[fi] = stats.BatchMeans(perFlow[fi])
	}
}

// referenceQuantile is DurationHistogram.Quantile as it was before it kept
// a sorted scratch: a fresh copy sorted with sort.Slice on every call.
func referenceQuantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(samples))
	copy(sorted, samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(q*float64(len(sorted)-1))]
}

// randomResult draws a Result with 0–5 flows and 0–12 batches; about one
// batch in four has zero length, and packet counts are often zero.
func randomResult(rng *rand.Rand) *Result {
	r := &Result{Flows: make([]Flow, rng.Intn(6))}
	nf := len(r.Flows)
	for range rng.Intn(13) {
		start := time.Duration(rng.Int63n(int64(time.Minute)))
		b := Batch{
			Start:              start,
			End:                start,
			PerFlowPackets:     make([]int64, nf),
			PerFlowRtx:         make([]uint64, nf),
			PerFlowWindow:      make([]float64, nf),
			MACDrops:           uint64(rng.Intn(50)),
			MACSubmitted:       uint64(rng.Intn(500)),
			FalseRouteFailures: uint64(rng.Intn(3)),
			TrueRouteFailures:  uint64(rng.Intn(3)),
		}
		if rng.Intn(4) != 0 {
			b.End += time.Duration(rng.Int63n(int64(10 * time.Second)))
		}
		for fi := range nf {
			if rng.Intn(3) != 0 {
				b.PerFlowPackets[fi] = rng.Int63n(2000)
			}
			b.PerFlowRtx[fi] = uint64(rng.Intn(40))
			b.PerFlowWindow[fi] = rng.Float64() * 30
		}
		r.Batches = append(r.Batches, b)
	}
	return r
}

func sameEstimate(a, b stats.Estimate) bool {
	return math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
		math.Float64bits(a.HalfCI) == math.Float64bits(b.HalfCI) &&
		math.Float64bits(a.Level) == math.Float64bits(b.Level) &&
		math.Float64bits(a.Variance) == math.Float64bits(b.Variance) &&
		a.N == b.N
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestQuickAggregateMatchesReference property-checks that the run's
// estimates are bit for bit those of the allocating code they replaced:
// Result.aggregate (one goodput computation per batch, series in a buffer
// reused across calls of any shape) against referenceAggregate, the Batch
// goodput methods against referencePerFlowGoodput, and the delay
// quantiles of a histogram queried between Adds and across a Reset (one
// sort shared by every query in between) against referenceQuantile.
func TestQuickAggregateMatchesReference(t *testing.T) {
	var buf []float64
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		got, want := randomResult(rng), randomResult(rand.New(rand.NewSource(seed)))
		buf = got.aggregate(buf)
		referenceAggregate(want)
		ok := sameEstimate(got.AggGoodput, want.AggGoodput) && sameEstimate(got.Rtx, want.Rtx) &&
			sameEstimate(got.AvgWindow, want.AvgWindow) && sameEstimate(got.DropProb, want.DropProb) &&
			sameEstimate(got.Jain, want.Jain) && len(got.PerFlowGood) == len(want.PerFlowGood) &&
			got.FalseRouteFailures == want.FalseRouteFailures && got.TrueRouteFailures == want.TrueRouteFailures
		for i := 0; ok && i < len(got.PerFlowGood); i++ {
			ok = sameEstimate(got.PerFlowGood[i], want.PerFlowGood[i])
		}
		for _, b := range got.Batches {
			ref := referencePerFlowGoodput(b)
			var sum float64
			for _, g := range ref {
				sum += g
			}
			ok = ok && sameBits(b.PerFlowGoodput(), ref) &&
				math.Float64bits(b.AggregateGoodput()) == math.Float64bits(sum) &&
				math.Float64bits(b.Jain()) == math.Float64bits(stats.JainIndex(ref))
		}

		h := stats.NewDurationHistogram(1<<12, rng.Int63n)
		var added []time.Duration
		for round := range 1 + rng.Intn(6) {
			if round > 0 && rng.Intn(4) == 0 {
				h.Reset()
				added = added[:0]
			}
			for range rng.Intn(300) {
				d := time.Duration(rng.Int63n(int64(time.Second)))
				h.Add(d)
				added = append(added, d)
			}
			for _, q := range []float64{0.5, 0.95, rng.Float64()} {
				ok = ok && h.Quantile(q) == referenceQuantile(added, q)
			}
		}
		if !ok {
			t.Logf("seed %d: aggregate or quantile differs from the reference", seed)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
