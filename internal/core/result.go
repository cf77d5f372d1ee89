package core

import (
	"slices"
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/stats"
)

// Batch holds the raw measurements of one batch (paper: 10000 delivered
// packets per batch).
type Batch struct {
	Start, End time.Duration // simulated time span
	// PerFlowPackets counts new in-order packets delivered per flow.
	PerFlowPackets []int64
	// PerFlowRtx counts transport-layer retransmissions per flow.
	PerFlowRtx []uint64
	// PerFlowWindow is the time-averaged congestion window per flow
	// (zero for UDP).
	PerFlowWindow []float64
	// MACDrops counts failed transmission attempts (retries + retry-limit
	// drops) and MACSubmitted all unicast attempts (RTS + DATA frames),
	// aggregated over nodes: their ratio is the paper's Figure 14 metric.
	MACDrops     uint64
	MACSubmitted uint64
	// FalseRouteFailures counts AODV teardowns caused by MAC give-ups on
	// links that were actually healthy (the paper's metric);
	// TrueRouteFailures counts teardowns where the next hop really was out
	// of range (only possible with mobility).
	FalseRouteFailures uint64
	TrueRouteFailures  uint64
}

// Duration returns the batch time span.
func (b Batch) Duration() time.Duration { return b.End - b.Start }

// PerFlowGoodput returns per-flow goodput in bit/s (payload bytes only,
// matching the paper's definition).
func (b Batch) PerFlowGoodput() []float64 {
	return b.appendGoodput(make([]float64, 0, len(b.PerFlowPackets)))
}

// appendGoodput appends the per-flow goodputs of PerFlowGoodput to dst.
func (b Batch) appendGoodput(dst []float64) []float64 {
	secs := b.Duration().Seconds()
	for _, p := range b.PerFlowPackets {
		g := 0.0
		if secs > 0 {
			g = float64(p) * pkt.TCPPayloadSize * 8 / secs
		}
		dst = append(dst, g)
	}
	return dst
}

// AggregateGoodput returns the summed goodput over flows in bit/s.
func (b Batch) AggregateGoodput() float64 { return sum(b.PerFlowGoodput()) }

// sum adds xs up in order.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Jain returns Jain's fairness index over the batch's per-flow goodputs.
func (b Batch) Jain() float64 { return stats.JainIndex(b.PerFlowGoodput()) }

// RtxPerDelivered returns transport retransmissions per delivered packet,
// averaged over flows (the paper's Figures 7 and 12 metric).
func (b Batch) RtxPerDelivered() float64 {
	if len(b.PerFlowPackets) == 0 {
		return 0
	}
	var sum float64
	n := 0
	for i := range b.PerFlowPackets {
		if b.PerFlowPackets[i] == 0 {
			continue
		}
		sum += float64(b.PerFlowRtx[i]) / float64(b.PerFlowPackets[i])
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// MeanWindow averages the per-flow time-weighted windows.
func (b Batch) MeanWindow() float64 {
	if len(b.PerFlowWindow) == 0 {
		return 0
	}
	return stats.Mean(b.PerFlowWindow)
}

// DropProbability returns the per-attempt link-layer failure probability
// in the batch.
func (b Batch) DropProbability() float64 {
	if b.MACSubmitted == 0 {
		return 0
	}
	return float64(b.MACDrops) / float64(b.MACSubmitted)
}

// EnergyReport summarizes radio energy use over the whole run.
type EnergyReport struct {
	TotalJoules      float64
	JoulesPerMB      float64 // energy per delivered payload megabyte
	DeliveredPackets int64
}

// DelaySummary reports end-to-end packet latency (send to in-order
// delivery, including retransmission waits) pooled over flows.
type DelaySummary struct {
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	Max  time.Duration
	N    int64
}

// OutageReport measures one injected fault's outage window and the
// network's recovery from it, at delivery granularity: recovery is the
// first new in-order packet delivered (on any flow) at or after the
// instant in question.
type OutageReport struct {
	// Fault is the injected spec's label (FaultSpec.Label).
	Fault string
	// Start is the injection instant; End the heal instant (zero for a
	// permanent fault).
	Start time.Duration
	End   time.Duration `json:",omitempty"`
	// Recovered reports whether any delivery happened at or after the
	// injection; TimeToRecover is the gap from injection to that first
	// delivery (how long the fault stalled end-to-end progress).
	Recovered     bool          `json:",omitempty"`
	TimeToRecover time.Duration `json:",omitempty"`
	// RecoveredAfterHeal and TimeToRecoverAfterHeal measure the same from
	// the heal instant: how long routing and the transport took to get
	// traffic flowing again once the fault cleared. Unset for permanent
	// faults.
	RecoveredAfterHeal     bool          `json:",omitempty"`
	TimeToRecoverAfterHeal time.Duration `json:",omitempty"`
}

// FaultReport aggregates a faulted run's resilience metrics. Nil on
// fault-free runs (the JSON encoding omits it, keeping their identity).
type FaultReport struct {
	// Injected is the number of scheduled faults.
	Injected int
	// Outages reports each fault's window and recovery, in schedule order.
	Outages []OutageReport
	// TimeInOutage is the simulated time with at least one fault active
	// (overlapping windows merged, clamped to the run).
	TimeInOutage time.Duration
	// DeliveredDuring and DeliveredOutside split the run's deliveries by
	// whether any fault was active at delivery time;
	// GoodputDuringBps/GoodputOutsideBps are the corresponding payload
	// rates. A healthy recovery shows GoodputDuringBps well below
	// GoodputOutsideBps with both nonzero.
	DeliveredDuring   int64
	DeliveredOutside  int64
	GoodputDuringBps  float64
	GoodputOutsideBps float64
	// FramesCut counts frame copies killed in flight by the fault plane
	// (severed links and partitions; a crashed node stops transmitting
	// rather than radiating undecodable frames).
	FramesCut uint64
	// RouteFailures totals AODV route teardowns over the whole run
	// (true + false), the route-repair work the faults triggered.
	RouteFailures uint64
}

// Result is the outcome of one Run.
type Result struct {
	Config Config
	// Flows is the materialized flow set (generator scenarios resolve
	// their random flows here).
	Flows []Flow

	// Measured batches (warm-up already discarded).
	Batches []Batch

	// Batch-means estimates over the measured batches.
	AggGoodput  stats.Estimate // bit/s
	PerFlowGood []stats.Estimate
	Rtx         stats.Estimate // retransmissions per delivered packet
	AvgWindow   stats.Estimate // packets
	DropProb    stats.Estimate // link-layer dropping probability
	Jain        stats.Estimate // fairness index

	FalseRouteFailures uint64 // total over measured batches
	TrueRouteFailures  uint64 // total over measured batches (mobility only)
	Energy             EnergyReport
	Delay              DelaySummary

	// ImpairedFrames counts frame copies killed by the link-impairment
	// model over the whole run (0 under the perfect channel).
	ImpairedFrames uint64 `json:",omitempty"`

	// Faults carries the resilience metrics of a faulted run; nil when
	// the config schedules no faults.
	Faults *FaultReport `json:",omitempty"`

	Delivered int64         // total packets delivered (incl. warm-up)
	SimTime   time.Duration // simulated duration
	Truncated bool          // MaxSimTime hit before TotalPackets
}

// aggregate computes the batch-means estimates from the measured batches.
// The per-batch series live in buf, which BatchMeans only reads; aggregate
// returns it, grown as needed, for the next call. Each batch's per-flow
// goodput is computed once and feeds the aggregate, Jain and per-flow
// series alike.
func (r *Result) aggregate(buf []float64) []float64 {
	nb, nf := len(r.Batches), len(r.Flows)
	if nb == 0 {
		return buf
	}
	// Five series, one per flow, then room for one batch's goodputs.
	series := (5 + nf) * nb
	buf = slices.Grow(buf[:0], series+nf)[:series]
	col := func(i int) []float64 { return buf[i*nb : (i+1)*nb] }
	agg, rtx, win, drop, jain := col(0), col(1), col(2), col(3), col(4)
	g := buf[series:series]
	for bi, b := range r.Batches {
		g = b.appendGoodput(g[:0])
		agg[bi] = sum(g)
		rtx[bi] = b.RtxPerDelivered()
		win[bi] = b.MeanWindow()
		drop[bi] = b.DropProbability()
		jain[bi] = stats.JainIndex(g)
		for fi := 0; fi < nf; fi++ {
			col(5 + fi)[bi] = g[fi]
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
	for fi := range r.PerFlowGood {
		r.PerFlowGood[fi] = stats.BatchMeans(col(5 + fi))
	}
	return buf
}
