package perf

import (
	"testing"

	"manetsim/internal/phy"
	"manetsim/internal/sim"
)

// The wrappers keep the suite runnable as ordinary go-test benchmarks:
//
//	go test -bench=. -benchmem ./internal/perf
//
// The bodies live in perf.go so `manetsim bench` runs the identical code.

func BenchmarkScheduleDispatch(b *testing.B)     { BenchScheduleDispatch(b) }
func BenchmarkScheduleDispatchDeep(b *testing.B) { BenchScheduleDispatchDeep(b) }
func BenchmarkScheduleCancel(b *testing.B)       { BenchScheduleCancel(b) }
func BenchmarkTimerReset(b *testing.B)           { BenchTimerReset(b) }
func BenchmarkMACContention(b *testing.B)        { BenchMACContention(b) }
func BenchmarkChannelNeighborQuery(b *testing.B) { BenchChannelNeighborQuery(b) }
func BenchmarkChannelNeighborQuerySparse(b *testing.B) {
	BenchChannelNeighborQuerySparse(b)
}
func BenchmarkChannelDeliverImpaired(b *testing.B) { BenchChannelDeliverImpaired(b) }
func BenchmarkRadioTransmit(b *testing.B)          { BenchRadioTransmit(b) }
func BenchmarkEndToEndBenchScale(b *testing.B)     { BenchEndToEndBenchScale(b) }
func BenchmarkRunWithFaults(b *testing.B)          { BenchRunWithFaults(b) }
func BenchmarkCampaignReplicates(b *testing.B)     { BenchCampaignReplicates(b) }
func BenchmarkCampaignReplicatesRebuild(b *testing.B) {
	BenchCampaignReplicatesRebuild(b)
}
func BenchmarkFigureTCPVariants(b *testing.B) { BenchFigureTCPVariants(b) }

// TestSuiteNamesMatchWrappers guards the Suite()/wrapper pairing: a case
// added to one side but not the other would silently vanish from either
// the CI run or the snapshot.
func TestSuiteNamesMatchWrappers(t *testing.T) {
	want := map[string]bool{
		"BenchmarkScheduleDispatch":           true,
		"BenchmarkScheduleDispatchDeep":       true,
		"BenchmarkScheduleCancel":             true,
		"BenchmarkTimerReset":                 true,
		"BenchmarkMACContention":              true,
		"BenchmarkChannelNeighborQuery":       true,
		"BenchmarkChannelNeighborQuerySparse": true,
		"BenchmarkChannelDeliverImpaired":     true,
		"BenchmarkRadioTransmit":              true,
		"BenchmarkEndToEndBenchScale":         true,
		"BenchmarkRunWithFaults":              true,
		"BenchmarkCampaignReplicates":         true,
		"BenchmarkCampaignReplicatesRebuild":  true,
		"BenchmarkFigureTCPVariants":          true,
	}
	got := Suite()
	if len(got) != len(want) {
		t.Fatalf("suite has %d cases, wrappers cover %d", len(got), len(want))
	}
	for _, c := range got {
		if !want[c.Name] {
			t.Errorf("suite case %q has no go-test wrapper", c.Name)
		}
	}
}

// walkAllocs returns the allocations per frame sent from tx and drained,
// after checking that the frames went the way the gates below mean to
// measure: each one a single queue entry that walks all five callbacks of
// a two-neighbor transmission (two signal starts, two ends, TxDone) in one
// scheduler round trip, nothing else being queued.
func walkAllocs(t *testing.T, sched *sim.Scheduler, tx *phy.Radio) float64 {
	t.Helper()
	entries, frames, steps := 0, 0, 0
	d0 := sched.Dispatched()
	n := testing.AllocsPerRun(200, func() {
		tx.Transmit("frame", 100e3)
		entries += sched.Pending()
		frames++
		for sched.Step() {
			steps++
		}
	})
	if entries != frames {
		t.Errorf("%d frames took %d queue entries, want one each", frames, entries)
	}
	if steps != frames {
		t.Errorf("%d frames took %d scheduler round trips, want one each", frames, steps)
	}
	if got := sched.Dispatched() - d0; got != uint64(5*frames) {
		t.Errorf("%d frames ran %d callbacks, want 5 each", frames, got)
	}
	return n
}

// TestChannelDeliverImpairedZeroAlloc is the hot-path gate of the
// link-impairment subsystem: after warm-up (per-link states populated, the
// transmission record and its signal array pooled), a frame delivery
// through an impaired channel — loss draws, jitter draws, the arrival
// re-sort, the walk, capture arbitration — must not allocate.
func TestChannelDeliverImpairedZeroAlloc(t *testing.T) {
	sched, tx, _ := newImpairedPair()
	if n := walkAllocs(t, sched, tx); n != 0 {
		t.Errorf("impaired delivery allocates %.1f times per frame, want 0", n)
	}
}

// TestChannelDeliverFaultedZeroAlloc extends the gate to the fault
// plane: with an active blackout installed on the channel, the
// steady-state delivery path — severance checks on every copy plus the
// usual impairment draws — must still not allocate.
func TestChannelDeliverFaultedZeroAlloc(t *testing.T) {
	sched, tx, sink, plane := newFaultedPair()
	if plane.Quiet() {
		t.Fatal("fault plane inactive; the gate would only measure the quiet path")
	}
	before := sink.rx + sink.corrupted
	if n := walkAllocs(t, sched, tx); n != 0 {
		t.Errorf("faulted delivery allocates %.1f times per frame, want 0", n)
	}
	if sink.rx+sink.corrupted == before {
		t.Fatal("nothing reached the unsevered receiver")
	}
}
