package core

import (
	"math"
	"testing"
	"time"

	"manetsim/internal/pkt"
)

func mkBatch(durMS int, pkts ...int64) Batch {
	b := Batch{
		Start:          0,
		End:            time.Duration(durMS) * time.Millisecond,
		PerFlowPackets: pkts,
		PerFlowRtx:     make([]uint64, len(pkts)),
		PerFlowWindow:  make([]float64, len(pkts)),
	}
	return b
}

func TestBatchGoodputComputation(t *testing.T) {
	// 100 packets in 1 s = 100 * 1460 * 8 bit/s.
	b := mkBatch(1000, 100)
	g := b.PerFlowGoodput()
	want := 100.0 * pkt.TCPPayloadSize * 8
	if math.Abs(g[0]-want) > 1e-6 {
		t.Errorf("goodput = %v, want %v", g[0], want)
	}
	if math.Abs(b.AggregateGoodput()-want) > 1e-6 {
		t.Errorf("aggregate = %v, want %v", b.AggregateGoodput(), want)
	}
}

func TestBatchZeroDuration(t *testing.T) {
	b := mkBatch(0, 100)
	if b.AggregateGoodput() != 0 {
		t.Error("zero-duration batch should report zero goodput")
	}
}

func TestBatchRtxPerDelivered(t *testing.T) {
	b := mkBatch(1000, 100, 200)
	b.PerFlowRtx = []uint64{10, 10}
	// (10/100 + 10/200)/2 = 0.075
	if got := b.RtxPerDelivered(); math.Abs(got-0.075) > 1e-9 {
		t.Errorf("rtx per delivered = %v, want 0.075", got)
	}
	// Starved flows are excluded, not divided by zero.
	b2 := mkBatch(1000, 100, 0)
	b2.PerFlowRtx = []uint64{10, 5}
	if got := b2.RtxPerDelivered(); math.Abs(got-0.1) > 1e-9 {
		t.Errorf("rtx with starved flow = %v, want 0.1", got)
	}
}

func TestBatchJainAndWindow(t *testing.T) {
	b := mkBatch(1000, 300, 100)
	b.PerFlowWindow = []float64{4, 8}
	if got := b.MeanWindow(); got != 6 {
		t.Errorf("mean window = %v, want 6", got)
	}
	// Jain of (300,100)-proportional goodputs: (400)^2/(2*(90000+10000)) = 0.8
	if got := b.Jain(); math.Abs(got-0.8) > 1e-9 {
		t.Errorf("jain = %v, want 0.8", got)
	}
}

func TestBatchDropProbability(t *testing.T) {
	b := mkBatch(1000, 10)
	b.MACDrops, b.MACSubmitted = 5, 100
	if got := b.DropProbability(); got != 0.05 {
		t.Errorf("drop probability = %v, want 0.05", got)
	}
	b.MACSubmitted = 0
	if b.DropProbability() != 0 {
		t.Error("zero attempts should report zero probability")
	}
}

func TestResultAggregateAcrossBatches(t *testing.T) {
	r := &Result{
		Flows: []Flow{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}},
	}
	for i := 0; i < 10; i++ {
		b := mkBatch(1000, 100, 100)
		b.FalseRouteFailures = 2
		r.Batches = append(r.Batches, b)
	}
	r.aggregate(nil)
	if r.FalseRouteFailures != 20 {
		t.Errorf("frf total = %d, want 20", r.FalseRouteFailures)
	}
	if r.AggGoodput.N != 10 {
		t.Errorf("goodput estimate over %d batches, want 10", r.AggGoodput.N)
	}
	if len(r.PerFlowGood) != 2 {
		t.Fatalf("per-flow estimates = %d, want 2", len(r.PerFlowGood))
	}
	// Identical flows: perfect fairness with zero-width CI.
	if r.Jain.Mean != 1 || r.Jain.HalfCI != 0 {
		t.Errorf("jain = %+v, want exactly 1", r.Jain)
	}
}

func TestResultAggregateEmptyBatchesIsNoop(t *testing.T) {
	r := &Result{}
	r.aggregate(nil) // must not panic
	if r.AggGoodput.N != 0 {
		t.Error("empty aggregate produced estimates")
	}
}
