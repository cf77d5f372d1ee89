package phy

import (
	"testing"
	"time"
	"unsafe"

	"manetsim/internal/geo"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// recorder is a test Handler capturing all PHY indications.
type recorder struct {
	frames    []any
	froms     []pkt.NodeID
	corrupted int
	busy      int
	idle      int
	txDone    int
	log       []string
}

func (r *recorder) RxFrame(f any, from pkt.NodeID) {
	r.frames = append(r.frames, f)
	r.froms = append(r.froms, from)
	r.log = append(r.log, "rx")
}
func (r *recorder) RxCorrupted() { r.corrupted++; r.log = append(r.log, "corrupt") }
func (r *recorder) ChannelBusy() { r.busy++; r.log = append(r.log, "busy") }
func (r *recorder) ChannelIdle() { r.idle++; r.log = append(r.log, "idle") }
func (r *recorder) TxDone()      { r.txDone++; r.log = append(r.log, "txdone") }

var _ Handler = (*recorder)(nil)

func setup(t *testing.T, positions []geo.Point) (*sim.Scheduler, *Channel, []*recorder) {
	t.Helper()
	sched := sim.NewScheduler(1)
	ch := NewChannel(sched, positions)
	recs := make([]*recorder, len(positions))
	for i := range recs {
		recs[i] = &recorder{}
		ch.Radio(pkt.NodeID(i)).SetHandler(recs[i])
	}
	return sched, ch, recs
}

func TestDeliveryWithinTxRange(t *testing.T) {
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 200}})
	sched.At(0, func() { ch.Radio(0).Transmit("hello", time.Millisecond) })
	sched.Run()
	if len(recs[1].frames) != 1 || recs[1].frames[0] != "hello" {
		t.Fatalf("node 1 frames = %v, want [hello]", recs[1].frames)
	}
	if recs[1].froms[0] != 0 {
		t.Errorf("from = %d, want 0", recs[1].froms[0])
	}
	if recs[0].txDone != 1 {
		t.Errorf("txDone = %d, want 1", recs[0].txDone)
	}
	// Receiver saw busy then rx then idle, in that order.
	want := []string{"busy", "rx", "idle"}
	if len(recs[1].log) != 3 {
		t.Fatalf("receiver log = %v", recs[1].log)
	}
	for i := range want {
		if recs[1].log[i] != want[i] {
			t.Fatalf("receiver log = %v, want %v", recs[1].log, want)
		}
	}
}

func TestCarrierSenseWithoutDecodeBetween250And550(t *testing.T) {
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 400}})
	sched.At(0, func() { ch.Radio(0).Transmit("x", time.Millisecond) })
	sched.Run()
	if len(recs[1].frames) != 0 {
		t.Error("node at 400m decoded a frame; transmission range is 250m")
	}
	if recs[1].busy != 1 || recs[1].idle != 1 {
		t.Errorf("busy/idle = %d/%d, want 1/1 (carrier sensed)", recs[1].busy, recs[1].idle)
	}
	// Undecodable noise reports an errored reception so the MAC defers
	// EIFS, as ns-2 does for sub-threshold packets.
	if recs[1].corrupted != 1 {
		t.Errorf("corrupted = %d, want 1 (noise end triggers EIFS)", recs[1].corrupted)
	}
}

func TestNoIndicationBeyondCSRange(t *testing.T) {
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 600}})
	sched.At(0, func() { ch.Radio(0).Transmit("x", time.Millisecond) })
	sched.Run()
	if len(recs[1].log) != 0 {
		t.Errorf("node at 600m got indications %v, want none", recs[1].log)
	}
}

// TestHiddenTerminalCollisionNoCapture reproduces the raw loss mechanism
// under the ablation (no capture) model: in a 200m-spaced chain, node 4
// (600 m from node 1) cannot sense node 1's transmission to node 2 but is
// within interference range (400 m) of node 2, so node 4 transmitting
// concurrently corrupts the reception.
func TestHiddenTerminalCollisionNoCapture(t *testing.T) {
	positions := geo.Chain(7) // nodes 0..7
	sched, ch, recs := setup(t, positions)
	ch.NoCapture = true
	sched.At(0, func() { ch.Radio(1).Transmit("data", 5*time.Millisecond) })
	// Node 4 starts mid-reception: hidden from node 1, lethal at node 2.
	sched.At(2*time.Millisecond, func() { ch.Radio(4).Transmit("rts", time.Millisecond) })
	sched.Run()
	if len(recs[2].frames) != 0 {
		t.Fatal("node 2 decoded the frame despite hidden-terminal interference")
	}
	// Two errored ends: the corrupted decode and the interferer's noise.
	if recs[2].corrupted != 2 {
		t.Errorf("node 2 corrupted = %d, want 2", recs[2].corrupted)
	}
	// Node 5 decodes node 4's frame cleanly (node 1 is 800m from node 5,
	// beyond interference range).
	if len(recs[5].frames) != 1 {
		t.Errorf("node 5 frames = %v, want the rts", recs[5].frames)
	}
}

// TestCaptureStrongFrameSurvivesWeakInterference checks the ns-2 capture
// behaviour the default model uses: the 200m frame (16x the power of the
// 400m interferer, above the 10 dB threshold) survives.
func TestCaptureStrongFrameSurvivesWeakInterference(t *testing.T) {
	positions := geo.Chain(7)
	sched, ch, recs := setup(t, positions)
	sched.At(0, func() { ch.Radio(1).Transmit("data", 5*time.Millisecond) })
	sched.At(2*time.Millisecond, func() { ch.Radio(4).Transmit("rts", time.Millisecond) })
	sched.Run()
	if len(recs[2].frames) != 1 {
		t.Fatalf("node 2 frames = %v, want capture to save the strong frame", recs[2].frames)
	}
	// The captured interferer still counts one errored (noise) end.
	if recs[2].corrupted != 1 {
		t.Errorf("node 2 corrupted = %d, want 1 (noise end only)", recs[2].corrupted)
	}
}

// TestCaptureDoesNotSaveComparablePowers: equal-distance signals are within
// 10 dB of each other, so they still collide even with capture enabled.
func TestCaptureDoesNotSaveComparablePowers(t *testing.T) {
	// Receiver in the middle, both senders at 200m.
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 200}, {X: 400}})
	sched.At(0, func() { ch.Radio(0).Transmit("a", 2*time.Millisecond) })
	sched.At(time.Millisecond, func() { ch.Radio(2).Transmit("b", time.Millisecond) })
	sched.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("node 1 decoded %v, want collision at comparable powers", recs[1].frames)
	}
	if recs[1].corrupted != 2 {
		t.Errorf("corrupted = %d, want 2 (both signals errored)", recs[1].corrupted)
	}
}

func TestSecondSignalDuringDecodeCorruptsBoth(t *testing.T) {
	// Three nodes mutually in tx range: 0 and 2 both transmit to 1.
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 200}, {X: 400}})
	sched.At(0, func() { ch.Radio(0).Transmit("a", time.Millisecond) })
	sched.At(500*time.Microsecond, func() { ch.Radio(2).Transmit("b", time.Millisecond) })
	sched.Run()
	if len(recs[1].frames) != 0 {
		t.Fatalf("node 1 decoded %v, want nothing (collision)", recs[1].frames)
	}
	if recs[1].corrupted != 2 {
		t.Errorf("corrupted indications = %d, want 2 (decode target + overlapping signal)", recs[1].corrupted)
	}
}

func TestDecodeRequiresIdleChannelAtStart(t *testing.T) {
	// Node 1 already senses energy from the 400m node when a decodable
	// frame arrives: receiver cannot sync, no decode.
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 200}, {X: 600}})
	// Node 2 is 400m from node 1 (sense only) and 600m from node 0.
	sched.At(0, func() { ch.Radio(2).Transmit("noise", 3*time.Millisecond) })
	sched.At(time.Millisecond, func() { ch.Radio(0).Transmit("data", time.Millisecond) })
	sched.Run()
	if len(recs[1].frames) != 0 {
		t.Error("node 1 decoded a frame that arrived on a busy channel")
	}
}

func TestHalfDuplexTxKillsDecode(t *testing.T) {
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 200}})
	sched.At(0, func() { ch.Radio(0).Transmit("data", 2*time.Millisecond) })
	sched.At(time.Millisecond, func() { ch.Radio(1).Transmit("own", 500*time.Microsecond) })
	sched.Run()
	if len(recs[1].frames) != 0 {
		t.Error("node decoded a frame while transmitting half-duplex")
	}
	if recs[1].corrupted != 1 {
		t.Errorf("corrupted = %d, want 1", recs[1].corrupted)
	}
}

func TestTransmitWhileTransmittingPanics(t *testing.T) {
	sched, ch, _ := setup(t, []geo.Point{{X: 0}, {X: 200}})
	panicked := false
	sched.At(0, func() { ch.Radio(0).Transmit("a", time.Millisecond) })
	sched.At(100*time.Microsecond, func() {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		ch.Radio(0).Transmit("b", time.Millisecond)
	})
	sched.Run()
	if !panicked {
		t.Error("double transmit did not panic")
	}
}

func TestPropagationDelayOrdersDelivery(t *testing.T) {
	sched, ch, recs := setup(t, []geo.Point{{X: 0}, {X: 150}})
	var deliveredAt sim.Time
	done := &recorder{}
	ch.Radio(1).SetHandler(done)
	_ = recs
	sched.At(0, func() { ch.Radio(0).Transmit("x", time.Millisecond) })
	sched.Run()
	// end-of-frame at 1ms + 150m/c = 1ms + 500ns
	deliveredAt = time.Millisecond + 500*time.Nanosecond
	_ = deliveredAt
	if len(done.frames) != 1 {
		t.Fatal("frame not delivered")
	}
}

func TestEnergyAccounting(t *testing.T) {
	sched, ch, _ := setup(t, []geo.Point{{X: 0}, {X: 200}})
	sched.At(0, func() { ch.Radio(0).Transmit("x", 2*time.Millisecond) })
	sched.Run()
	if got := ch.Radio(0).TxTime(); got != 2*time.Millisecond {
		t.Errorf("tx time = %v, want 2ms", got)
	}
	if got := ch.Radio(1).RxTime(); got != 2*time.Millisecond {
		t.Errorf("rx time = %v, want 2ms", got)
	}
}

func TestIdleQuery(t *testing.T) {
	sched, ch, _ := setup(t, []geo.Point{{X: 0}, {X: 200}})
	if !ch.Radio(1).Idle() {
		t.Error("radio not idle before any traffic")
	}
	sched.At(0, func() { ch.Radio(0).Transmit("x", time.Millisecond) })
	sched.At(500*time.Microsecond, func() {
		if ch.Radio(1).Idle() {
			t.Error("radio idle during reception")
		}
		if ch.Radio(0).Idle() {
			t.Error("transmitter idle during own transmission")
		}
	})
	sched.Run()
	if !ch.Radio(1).Idle() {
		t.Error("radio not idle after traffic drained")
	}
}

// scripted is a PositionModel driven by an explicit position function.
type scripted struct {
	n  int
	at func(i int, t sim.Time) geo.Point
}

func (m *scripted) Len() int                               { return m.n }
func (m *scripted) Static() bool                           { return false }
func (m *scripted) PositionAt(i int, t sim.Time) geo.Point { return m.at(i, t) }

func TestMobileChannelBreaksAndRestoresLink(t *testing.T) {
	// Node 1 walks out of carrier-sense range at 50ms and returns at 150ms.
	model := &scripted{n: 2, at: func(i int, at sim.Time) geo.Point {
		if i == 0 {
			return geo.Point{}
		}
		if at >= 50*time.Millisecond && at < 150*time.Millisecond {
			return geo.Point{X: 600}
		}
		return geo.Point{X: 200}
	}}
	sched := sim.NewScheduler(1)
	ch := NewMobileChannel(sched, model, 10*time.Millisecond)
	recs := []*recorder{{}, {}}
	ch.Radio(0).SetHandler(recs[0])
	ch.Radio(1).SetHandler(recs[1])

	sched.At(10*time.Millisecond, func() { ch.Radio(0).Transmit("near", time.Millisecond) })
	sched.At(100*time.Millisecond, func() { ch.Radio(0).Transmit("gone", time.Millisecond) })
	sched.At(200*time.Millisecond, func() { ch.Radio(0).Transmit("back", time.Millisecond) })
	sched.RunUntil(300 * time.Millisecond)

	want := []any{"near", "back"}
	if len(recs[1].frames) != 2 || recs[1].frames[0] != want[0] || recs[1].frames[1] != want[1] {
		t.Fatalf("node 1 frames = %v, want %v", recs[1].frames, want)
	}
	if !ch.Reachable(0, 1) {
		t.Error("nodes back in range not Reachable")
	}
}

func TestMobileChannelReachableTracksEpochs(t *testing.T) {
	model := &scripted{n: 2, at: func(i int, at sim.Time) geo.Point {
		if i == 0 {
			return geo.Point{}
		}
		// 5 m/s straight-line drift away along X from 200m.
		return geo.Point{X: 200 + 5*at.Seconds()}
	}}
	sched := sim.NewScheduler(1)
	ch := NewMobileChannel(sched, model, 100*time.Millisecond)
	ch.Radio(0).SetHandler(&recorder{})
	ch.Radio(1).SetHandler(&recorder{})
	if !ch.Reachable(0, 1) {
		t.Fatal("not reachable at 200m")
	}
	sched.RunUntil(30 * time.Second) // drifted to 350m > TxRange
	if ch.Reachable(0, 1) {
		t.Error("still Reachable at 350m")
	}
	if d := ch.Distance(0, 1); d < 349 || d > 351 {
		t.Errorf("Distance = %.1f, want ~350", d)
	}
}

// staticModel exercises the NewMobileChannel static fast path.
type staticModel struct{ pts []geo.Point }

func (m *staticModel) Len() int                               { return len(m.pts) }
func (m *staticModel) Static() bool                           { return true }
func (m *staticModel) PositionAt(i int, _ sim.Time) geo.Point { return m.pts[i] }

func TestMobileChannelStaticModelSchedulesNoEpochs(t *testing.T) {
	sched := sim.NewScheduler(1)
	ch := NewMobileChannel(sched, &staticModel{pts: []geo.Point{{X: 0}, {X: 200}}}, 0)
	recs := []*recorder{{}, {}}
	ch.Radio(0).SetHandler(recs[0])
	ch.Radio(1).SetHandler(recs[1])
	sched.At(0, func() { ch.Radio(0).Transmit("hello", time.Millisecond) })
	// Run (not RunUntil): the queue must drain — a static channel schedules
	// no recurring position epochs.
	sched.Run()
	if len(recs[1].frames) != 1 {
		t.Fatalf("frames = %v", recs[1].frames)
	}
	if sched.Now() > 2*time.Millisecond {
		t.Errorf("scheduler ran to %v; epoch events leaked", sched.Now())
	}
}

// TestGridNeighborsMatchBruteForce cross-checks the spatial-grid neighbor
// query against the O(n²) definition on a random placement.
func TestGridNeighborsMatchBruteForce(t *testing.T) {
	rng := sim.NewScheduler(7).Rand()
	pts := make([]geo.Point, 80)
	for i := range pts {
		pts[i] = geo.Point{X: rng.Float64() * 2500, Y: rng.Float64() * 1000}
	}
	sched := sim.NewScheduler(1)
	ch := NewChannel(sched, pts)
	for i := range pts {
		got := map[pkt.NodeID]bool{}
		for _, nb := range ch.neighborsOf(ch.Radio(pkt.NodeID(i))) {
			got[nb.radio.id] = true
		}
		for j := range pts {
			want := i != j && pts[i].Distance(pts[j]) <= CSRange
			if got[pkt.NodeID(j)] != want {
				t.Fatalf("node %d neighbor %d = %v, want %v", i, j, got[pkt.NodeID(j)], want)
			}
		}
	}
}

// TestTxRecordFillsCacheLines keeps a transmission record a whole number
// of 64-byte cache lines, in a size class the allocator aligns to them:
// records live as long as their channel, and one that shared a line with
// another World's record would slow both Worlds' walks for the rest of a
// Campaign.
func TestTxRecordFillsCacheLines(t *testing.T) {
	if got := unsafe.Sizeof(txRecord{}); got%64 != 0 || got > 256 {
		t.Errorf("txRecord is %d bytes, want a multiple of 64 up to 256 (adjust its padding)", got)
	}
}
