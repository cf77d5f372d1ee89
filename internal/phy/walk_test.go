package phy

import (
	"cmp"
	"errors"
	"slices"
	"testing"
	"time"

	"manetsim/internal/fault"
	"manetsim/internal/geo"
	"manetsim/internal/linkmodel"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// indication is one PHY indication as a MAC would see it, with the node it
// reached and the instant it fired.
type indication struct {
	at   sim.Time
	node pkt.NodeID
	kind string
}

// tape is a Handler appending every indication of its node to a log shared
// by the whole channel, so the log's order is the global dispatch order.
// With stopEvery set it also stops the run from inside every so-manieth
// indication — mid-walk, as a finished flow stops a real run.
type tape struct {
	sched     *sim.Scheduler
	node      pkt.NodeID
	log       *[]indication
	stopEvery int
}

func (t *tape) add(kind string) {
	*t.log = append(*t.log, indication{t.sched.Now(), t.node, kind})
	if t.stopEvery > 0 && len(*t.log)%t.stopEvery == 0 {
		t.sched.Stop()
	}
}
func (t *tape) RxFrame(any, pkt.NodeID) { t.add("rx") }
func (t *tape) RxCorrupted()            { t.add("corrupt") }
func (t *tape) ChannelBusy()            { t.add("busy") }
func (t *tape) ChannelIdle()            { t.add("idle") }
func (t *tape) TxDone()                 { t.add("txdone") }

func taped(positions []geo.Point) (*sim.Scheduler, *Channel, *[]indication) {
	sched := sim.NewScheduler(1)
	ch := NewChannel(sched, positions)
	log := new([]indication)
	for i := range positions {
		ch.Radio(pkt.NodeID(i)).SetHandler(&tape{sched, pkt.NodeID(i), log, 0})
	}
	return sched, ch, log
}

// assertDrained checks the air-time conservation law: once the scheduler
// has nothing left, no radio senses energy, none is transmitting or locked
// onto a frame, and every transmission record is back on the freelist.
func assertDrained(t *testing.T, sched *sim.Scheduler, ch *Channel) {
	t.Helper()
	if n := sched.Pending(); n != 0 {
		t.Fatalf("scheduler still holds %d events", n)
	}
	for _, r := range ch.radios {
		if r.airCount != 0 || r.decoding != nil || r.Transmitting() {
			t.Errorf("node %d after drain: airCount=%d decoding=%v transmitting=%v, want 0, nil, false",
				r.id, r.airCount, r.decoding != nil, r.Transmitting())
		}
	}
	if ch.liveTx != 0 {
		t.Errorf("%d transmission records still live after drain, want 0", ch.liveTx)
	}
}

// TestWalkMatchesPerCopyKeys transmits from the middle of a line whose
// receivers' arrival order differs from their id order — by geometry alone,
// with ties between mirror-image receivers, and again with per-copy jitter
// larger than any propagation delay — and checks the channel-wide
// indication log against a reference derived from each copy's own
// (start, end) keys: start of neighbor i in id order = (start_i, 2i), its
// end = (start_i+airtime, 2i+1), txDone = (now+airtime, 2k), dispatched in
// (time, seq) order. The reference takes its jitter draws from its own
// link states, in id order, as the channel must.
func TestWalkMatchesPerCopyKeys(t *testing.T) {
	const (
		sender  = pkt.NodeID(3)
		airtime = 100 * time.Microsecond
		seed    = 7
	)
	// x-offsets from the sender: ids 0..6 arrive in the order 2=4 (100 m),
	// 1 (200 m), 5 (240 m), 0 (400 m), 6 (500 m).
	xs := []float64{-400, -200, -100, 0, 100, 240, 500}
	positions := make([]geo.Point, len(xs))
	for i, x := range xs {
		positions[i] = geo.Point{X: x}
	}
	for _, jitter := range []time.Duration{0, 5 * time.Microsecond} {
		sched, ch, log := taped(positions)
		ch.SetLinkModel(linkmodel.Perfect{}, jitter, 0, seed)
		states := make([]linkmodel.State, len(xs))
		for i := range states {
			states[i].Seed(linkmodel.LinkSeed(seed, uint32(sender), uint32(i)))
		}
		type key struct {
			at   sim.Time
			seq  int
			node pkt.NodeID
			kind string
		}
		var want []indication
		reordered := false
		for frame := 0; frame < 20; frame++ {
			now := sched.Now()
			var keys []key
			var prev sim.Time
			k := 0
			for i, x := range xs {
				if pkt.NodeID(i) == sender {
					continue
				}
				d := max(x, -x)
				start := now + PropagationDelay(d)
				if jitter > 0 {
					start += time.Duration(states[i].Float64() * float64(jitter))
				}
				reordered = reordered || start < prev
				prev = start
				end := "corrupt"
				if d <= TxRange {
					end = "rx"
				}
				keys = append(keys,
					key{start, 2 * k, pkt.NodeID(i), "busy"},
					key{start + airtime, 2*k + 1, pkt.NodeID(i), end})
				k++
			}
			keys = append(keys, key{now + airtime, 2 * k, sender, "txdone"})
			slices.SortFunc(keys, func(a, b key) int {
				return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.seq, b.seq))
			})
			for _, e := range keys {
				want = append(want, indication{e.at, e.node, e.kind})
				if e.kind == "rx" || e.kind == "corrupt" {
					want = append(want, indication{e.at, e.node, "idle"})
				}
			}
			ch.Radio(sender).Transmit(frame, airtime)
			if n := sched.Pending(); n != 1 {
				t.Fatalf("jitter %v: %d scheduler entries for one frame on the air, want 1", jitter, n)
			}
			sched.Run()
		}
		if !reordered {
			t.Fatalf("jitter %v: arrival order never differed from id order; the test would prove nothing", jitter)
		}
		if !slices.Equal(*log, want) {
			for i := range want {
				if i >= len(*log) || (*log)[i] != want[i] {
					t.Fatalf("jitter %v: indication %d diverges\n got %v\nwant %v", jitter, i, (*log)[max(0, i-2):min(len(*log), i+3)], want[max(0, i-2):i+3])
				}
			}
			t.Fatalf("jitter %v: %d indications, want %d", jitter, len(*log), len(want))
		}
		assertDrained(t, sched, ch)
	}
}

// TestWalkRetiresAcrossFaults drives the walk through the fault plane's
// awkward moments: a receiver that crashes while locked onto a frame, a
// sender that crashes mid-transmission, and a link blacked out while a
// frame is crossing it. Each must leave the air bookkeeping balanced.
func TestWalkRetiresAcrossFaults(t *testing.T) {
	const airtime = 100 * time.Microsecond
	sched, ch, log := taped([]geo.Point{{X: 0}, {X: 200}, {X: 400}})
	plane := &fault.Plane{}
	plane.Reset(3)
	ch.SetFaultPlane(plane)
	kinds := func(node pkt.NodeID) (s []string) {
		for _, e := range *log {
			if e.node == node {
				s = append(s, e.kind)
			}
		}
		return s
	}
	// send puts one frame from node 0 on the air, runs during at mid-frame
	// and drains the scheduler; the log then holds that frame alone.
	send := func(during func()) {
		*log = (*log)[:0]
		ch.Radio(0).Transmit("frame", airtime)
		if during != nil {
			sched.After(airtime/2, during)
		}
		sched.Run()
		assertDrained(t, sched, ch)
	}

	// Receiver 1 crashes mid-decode: it saw the frame begin and nothing
	// after; the decode is abandoned, the copy still retires.
	send(func() { plane.CrashNode(1) })
	if got := kinds(1); !slices.Equal(got, []string{"busy"}) {
		t.Errorf("receiver crashed mid-decode saw %v, want [busy]", got)
	}
	plane.RestoreNode(1)

	// Sender 0 crashes mid-transmission: the frame finishes on the air and
	// is delivered, but the dead sender's MAC hears no TxDone.
	send(func() { plane.CrashNode(0) })
	if got := kinds(0); len(got) != 0 {
		t.Errorf("sender crashed mid-frame saw %v, want nothing", got)
	}
	if got := kinds(1); !slices.Equal(got, []string{"busy", "rx", "idle"}) {
		t.Errorf("receiver of a frame whose sender crashed saw %v, want [busy rx idle]", got)
	}
	plane.RestoreNode(0)

	// Blackout mid-frame: severance is decided per copy at transmit time,
	// so the frame in flight arrives whole and only the next one is cut.
	send(func() { plane.BlockLink(0, 1) })
	if got := kinds(1); !slices.Equal(got, []string{"busy", "rx", "idle"}) {
		t.Errorf("frame in flight when the link blacked out: receiver saw %v, want [busy rx idle]", got)
	}
	send(nil)
	if got := kinds(1); !slices.Equal(got, []string{"busy", "corrupt", "idle"}) {
		t.Errorf("frame across a blacked-out link: receiver saw %v, want [busy corrupt idle]", got)
	}
	if n := ch.Radio(0).FramesFaulted; n != 1 {
		t.Errorf("FramesFaulted = %d, want 1", n)
	}
}

// TestWalkConservesAirUnderContention overlaps many walks — every node of a
// chain transmitting on its own period, jitter shuffling arrivals, frames
// colliding and capturing — and checks conservation after the drain. It then
// replays the same traffic over the Reset arena with the run stopped from
// inside every seventh indication and resumed: the walks cut by Stop must
// produce the identical indication log and drain just the same. Last, a
// replay is cut off mid-frame by a Stop and swept by an arena-style Reset.
func TestWalkConservesAirUnderContention(t *testing.T) {
	const n = 8
	sched, ch, log := taped(geo.Chain(n - 1))
	arm := func(stopEvery int) {
		ch.SetLinkModel(linkmodel.UniformLoss{P: 0.2}, 20*time.Microsecond, 0, 3)
		for i := 0; i < n; i++ {
			r := ch.Radio(pkt.NodeID(i))
			r.SetHandler(&tape{sched, r.id, log, stopEvery})
			period := time.Duration(310+37*i) * time.Microsecond
			for at := period; at < 20*time.Millisecond; at += period {
				sched.At(at, func() {
					if !r.Transmitting() {
						r.Transmit("x", 200*time.Microsecond)
					}
				})
			}
		}
	}
	rewind := func() {
		sched.Reset(1)
		ch.Reset(&staticModel{pts: geo.Chain(n - 1)}, 0)
		assertDrained(t, sched, ch)
	}
	arm(0)
	sched.Run()
	var sent, collided uint64
	for _, r := range ch.radios {
		sent += r.FramesSent
		collided += r.Collisions
	}
	if sent < 100 || collided == 0 {
		t.Fatalf("sent %d frames with %d collisions; the scenario should contend", sent, collided)
	}
	assertDrained(t, sched, ch)
	whole := slices.Clone(*log)

	rewind()
	*log = (*log)[:0]
	arm(7)
	stops := 0
	for sched.Pending() > 0 {
		sched.Run()
		stops++
	}
	if stops < len(whole)/7 {
		t.Fatalf("the run was stopped %d times over %d indications, want one in seven", stops, len(whole))
	}
	if !slices.Equal(*log, whole) {
		t.Fatalf("walks cut by Stop logged %d indications that differ from the uncut run's %d", len(*log), len(whole))
	}
	assertDrained(t, sched, ch)

	rewind()
	arm(len(whole) / 3)
	sched.Run()
	if ch.liveTx == 0 || sched.Pending() == 0 {
		t.Fatal("no transmission in flight at the cut-off; pick another instant")
	}
	rewind()
}

// TestWalkCancelLatencyOnDenseTrain cancels a polled run from inside an
// indication of a frame to 40 neighbors — an 81-sub-event walk that would
// otherwise be a single scheduler round trip — and checks that the run
// returns within one polling interval of callbacks, not one of Steps.
func TestWalkCancelLatencyOnDenseTrain(t *testing.T) {
	const (
		neighbors = 40
		every     = 16
	)
	positions := make([]geo.Point, neighbors+1)
	for i := range positions {
		positions[i] = geo.Point{X: float64(i%7) * 30, Y: float64(i/7) * 30}
	}
	sched, ch, log := taped(positions)
	if k := ch.NeighborCount(0); k != neighbors {
		t.Fatalf("sender has %d neighbors, want %d", k, neighbors)
	}
	for frame := 0; frame < 10; frame++ {
		sched.At(time.Duration(frame)*time.Millisecond, func() { ch.Radio(0).Transmit("x", 100*time.Microsecond) })
	}
	cancelled := errors.New("cancelled")
	var cancelAt uint64
	// The nearest receiver's copy is the first to end: 39 ends still to go.
	ch.Radio(1).SetHandler(&cancelOnIdle{after: 3, sched: sched, at: &cancelAt})
	err := sched.RunUntilWithCheck(time.Second, every, func() error {
		if cancelAt != 0 {
			return cancelled
		}
		return nil
	})
	if err != cancelled {
		t.Fatalf("run returned %v, want the cancellation", err)
	}
	if late := sched.Dispatched() - cancelAt; late > every {
		t.Errorf("run returned %d callbacks after the cancellation, want at most %d", late, every)
	}
	if len(*log) == 0 || ch.liveTx != 1 {
		t.Errorf("%d indications logged, %d frames in flight at the abort; the cancel should land mid-walk", len(*log), ch.liveTx)
	}
}

// cancelOnIdle is a Handler that records the dispatch count at its after-th
// ChannelIdle, which is how the test above "cancels its context".
type cancelOnIdle struct {
	after int
	sched *sim.Scheduler
	at    *uint64
}

func (c *cancelOnIdle) RxFrame(any, pkt.NodeID) {}
func (c *cancelOnIdle) RxCorrupted()            {}
func (c *cancelOnIdle) ChannelBusy()            {}
func (c *cancelOnIdle) TxDone()                 {}
func (c *cancelOnIdle) ChannelIdle() {
	if c.after--; c.after == 0 {
		*c.at = c.sched.Dispatched()
	}
}

// sinkHandler is the minimal handler for the delivery gates below: it
// counts deliveries and corruptions and ignores carrier state.
type sinkHandler struct{ rx, corrupted int }

func (h *sinkHandler) RxFrame(any, pkt.NodeID) { h.rx++ }
func (h *sinkHandler) RxCorrupted()            { h.corrupted++ }
func (h *sinkHandler) ChannelBusy()            {}
func (h *sinkHandler) ChannelIdle()            {}
func (h *sinkHandler) TxDone()                 {}

// newImpairedPair builds the 3-node line every impaired-delivery
// measurement uses — sender, decodable receiver at 200 m, gray-zone
// listener at 400 m (energy only under the perfect channel) — with
// bursty Gilbert-Elliott loss and delay jitter installed, and returns
// the scheduler, sender radio and receiving sink. One warm-up transmit
// has already run, so per-link states and the pooled transmission record
// are allocated.
func newImpairedPair() (*sim.Scheduler, *Radio, *sinkHandler) {
	sched := sim.NewScheduler(1)
	ch := NewChannel(sched, []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}})
	ch.SetLinkModel(linkmodel.GilbertElliott{
		PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.5,
	}, 10*time.Microsecond, 0, 1)
	sink := &sinkHandler{}
	tx := ch.Radio(0)
	tx.SetHandler(&sinkHandler{})
	ch.Radio(1).SetHandler(sink)
	ch.Radio(2).SetHandler(&sinkHandler{})
	tx.Transmit("warmup", 100*time.Microsecond)
	sched.Run()
	return sched, tx, sink
}

// newFaultedPair is newImpairedPair with the fault plane installed and
// active: the gray-zone link 0<->2 is blacked out, so every transmit
// walks the severance checks on each copy with the plane in its
// non-quiet state while the decodable receiver keeps delivering.
func newFaultedPair() (*sim.Scheduler, *Radio, *sinkHandler, *fault.Plane) {
	sched := sim.NewScheduler(1)
	ch := NewChannel(sched, []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}})
	ch.SetLinkModel(linkmodel.GilbertElliott{
		PGoodBad: 0.05, PBadGood: 0.3, LossBad: 0.5,
	}, 10*time.Microsecond, 0, 1)
	plane := &fault.Plane{}
	plane.Reset(3)
	plane.BlockLink(0, 2)
	plane.BlockLink(2, 0)
	ch.SetFaultPlane(plane)
	sink := &sinkHandler{}
	tx := ch.Radio(0)
	tx.SetHandler(&sinkHandler{})
	ch.Radio(1).SetHandler(sink)
	ch.Radio(2).SetHandler(&sinkHandler{})
	tx.Transmit("warmup", 100*time.Microsecond)
	sched.Run()
	return sched, tx, sink, plane
}

// walkAllocs returns the allocations per frame sent from tx and drained,
// after checking that the frames went the way the gates below mean to
// measure: each one a single queue entry that walks all five callbacks of
// a two-neighbor transmission (two signal starts, two ends, TxDone) in one
// scheduler round trip, nothing else being queued.
func walkAllocs(t *testing.T, sched *sim.Scheduler, tx *Radio) float64 {
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
