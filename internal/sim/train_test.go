package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// A "train" is one queue entry walking several sub-events under reserved
// sequence numbers (ReserveSeq + AtFuncSeq, then Advance or else Refire per
// sub-event). The property below runs one random program three times —
// every sub-event scheduled as an AtFunc of its own, trains re-keyed in
// place step by step, and trains running ahead inline wherever Advance lets
// them — and demands the identical dispatch log, which is the equivalence
// the PHY's transmission walk rests on.

// fired is one log entry: the dispatch key and which sub-event ran. A
// marker entry records where each RunUntil call stopped (id -1) or where
// its check cut it short (id -3).
type fired struct {
	at      Time
	seq     uint64
	id, sub int
}

type trainMode int

const (
	separate trainMode = iota // one AtFunc per sub-event: the reference
	refire                    // one entry per train, re-keyed after every sub-event
	ahead                     // one entry per train, Advance else Refire
)

type trainProg struct {
	s      *Scheduler
	rng    *rand.Rand
	mode   trainMode
	inline int // sub-events reached through Advance
	log    []fired
	plain  []EventRef // every plain event ever scheduled, for cancels
	pool   []uint64   // reserved numbers not yet spent, oldest first
	nextID int
	resets int
	// Coverage of the horizon in mode ahead: pushes that lowered it, and
	// cancels of the very event it was taken from.
	lowered, hCancels int
}

type plainEv struct {
	p   *trainProg
	id  int
	ref EventRef
}

// trainSpec is a train of len(at) sub-events; sub-event j has key
// (at[j], base+j), base being the first of the reserved numbers.
type trainSpec struct {
	p     *trainProg
	id    int
	at    []Time
	base  uint64
	order []int      // sub-event indices in (at, seq) order
	pos   int        // walk cursor into order
	refs  []EventRef // walk: the one original ref; otherwise one per sub-event
}

// car is the argument of one separately scheduled sub-event.
type car struct {
	tr  *trainSpec
	sub int
}

const maxObjects = 60

func plainFn(a any) {
	e := a.(*plainEv)
	e.p.fire(e.id, -1, e.ref, nil)
}

// carFn keeps tr.pos as walkFn does, so a car's callback knows the key of
// the train's next sub-event, as a walked train's does.
func carFn(a any) {
	c := a.(*car)
	c.tr.pos++
	c.tr.p.fire(c.tr.id, c.sub, c.tr.refs[c.sub], c.tr)
}

func walkFn(a any) {
	tr := a.(*trainSpec)
	p := tr.p
	for {
		sub := tr.order[tr.pos]
		tr.pos++
		if p.fire(tr.id, sub, tr.refs[0], tr) || tr.pos == len(tr.order) {
			return
		}
		next := tr.order[tr.pos]
		at, seq := tr.at[next], tr.base+uint64(next)
		if p.mode != ahead || !p.s.Advance(at, seq) {
			p.s.Refire(at, seq)
			return
		}
		p.inline++
	}
}

// fire logs the dispatching (sub-)event and then misbehaves at random:
// schedules more work (often at this very instant, or right at the running
// train's next key), cancels its own stale ref, somebody else or the
// earliest plain event still queued, stops the run or resets the
// scheduler. It reports a Reset, after which a walk may neither advance nor
// re-key. Every choice depends only on what has fired so far, never on the
// mode, so the three modes run one program.
func (p *trainProg) fire(id, sub int, self EventRef, tr *trainSpec) (reset bool) {
	p.log = append(p.log, fired{p.s.Now(), p.s.cur.seq, id, sub})
	if self.Pending() {
		p.log = append(p.log, fired{id: -2}) // own ref must be stale by now
	}
	switch p.rng.Intn(20) {
	case 0, 1, 2, 3, 4:
		p.newPlain(p.s.Now()+Time(p.rng.Intn(4)), -1)
	case 5, 6, 7, 8:
		p.newTrain()
	case 9:
		p.s.Cancel(self)
	case 10:
		p.s.Cancel(p.plain[p.rng.Intn(len(p.plain))])
	case 11:
		p.cancelEarliest()
	case 12:
		p.s.Stop()
	case 13:
		p.pool = append(p.pool, p.s.ReserveSeq(1))
	case 14, 15, 16:
		if tr != nil && tr.pos < len(tr.order) {
			p.pushNear(tr)
		}
	case 17:
		// Late and once, so most of the program runs before the sweep.
		if p.resets == 0 && len(p.log) > 40 {
			p.resets++
			p.s.Reset(int64(len(p.log)))
			p.pool = p.pool[:0] // the numbering restarts
			p.newPlain(p.s.Now()+Time(p.rng.Intn(4)), -1)
			return true
		}
	}
	return false
}

// pushNear schedules a plain event beside the next key (at, seq) of the
// train whose sub-event is running: one instant before or after it, at it
// under a fresh (so higher) number, or at it under a reserved number older
// or younger than seq.
func (p *trainProg) pushNear(tr *trainSpec) {
	next := tr.order[tr.pos]
	at, seq := tr.at[next], tr.base+uint64(next)
	last := len(p.pool) - 1
	switch p.rng.Intn(5) {
	case 0:
		p.newPlain(max(at-1, p.s.Now()), -1)
	case 1:
		p.newPlain(at, -1)
	case 2:
		p.newPlain(at+1, -1)
	case 3:
		if last >= 0 && p.pool[0] < seq {
			p.newPlain(at, 0)
		}
	case 4:
		if last >= 0 && p.pool[last] > seq {
			p.newPlain(at, last)
		}
	}
}

// cancelEarliest cancels the plain event first in the queue's order, the
// likeliest source of the horizon.
func (p *trainProg) cancelEarliest() {
	var first EventRef
	for _, r := range p.plain {
		if r.Pending() && (first.e == nil || less(r.e, first.e)) {
			first = r
		}
	}
	if first.e == nil {
		return
	}
	if p.s.cur != nil && first.e.at == p.s.hAt && first.e.seq == p.s.hSeq {
		p.hCancels++
	}
	p.s.Cancel(first)
}

// newPlain schedules a plain event at t under a fresh number or, for
// spend >= 0, under the reserved number p.pool[spend].
func (p *trainProg) newPlain(t Time, spend int) {
	if p.nextID >= maxObjects {
		return
	}
	e := &plainEv{p: p, id: p.nextID}
	p.nextID++
	hAt, hSeq := p.s.hAt, p.s.hSeq
	if spend >= 0 {
		e.ref = p.s.AtFuncSeq(t, p.pool[spend], plainFn, e)
		p.pool = slices.Delete(p.pool, spend, spend+1)
	} else {
		e.ref = p.s.AtFunc(t, plainFn, e)
	}
	if hAt != p.s.hAt || hSeq != p.s.hSeq {
		p.lowered++
	}
	p.plain = append(p.plain, e.ref)
}

func (p *trainProg) newTrain() {
	if p.nextID >= maxObjects {
		return
	}
	tr := &trainSpec{p: p, id: p.nextID, at: make([]Time, 1+p.rng.Intn(6))}
	p.nextID++
	for j := range tr.at {
		tr.at[j] = p.s.Now() + Time(p.rng.Intn(5))
		tr.order = append(tr.order, j)
	}
	slices.SortStableFunc(tr.order, func(a, b int) int { return int(tr.at[a] - tr.at[b]) })
	if p.mode == separate {
		tr.base = p.s.ReserveSeq(0) // the number the first AtFunc draws
		for j := range tr.at {
			tr.refs = append(tr.refs, p.s.AtFunc(tr.at[j], carFn, &car{tr, j}))
		}
		return
	}
	tr.base = p.s.ReserveSeq(len(tr.at))
	first := tr.order[0]
	tr.refs = []EventRef{p.s.AtFuncSeq(tr.at[first], tr.base+uint64(first), walkFn, tr)}
}

// run seeds the program and drives it with short RunUntil slices, so
// deadlines and Stops land in the middle of trains and the next call has
// to resume them. Every other slice polls a check at an interval shorter
// than most trains, so the polling fence cuts trains too. Now and then the
// check objects; the loop breaks off short of its deadline, and a run to a
// nearer deadline follows, so a deadline can also move back.
func (p *trainProg) run(until Time) []fired {
	p.newPlain(0, -1)
	p.newTrain()
	p.newTrain()
	errCut := errors.New("cut")
	check := func() error {
		if p.rng.Intn(8) == 0 {
			return errCut
		}
		return nil
	}
	for deadline := Time(3); p.s.Pending() > 0 && deadline <= until; deadline += 3 {
		if deadline%2 == 0 {
			p.s.RunUntil(deadline)
		} else if err := p.s.RunUntilWithCheck(deadline, 2, check); err == errCut {
			p.log = append(p.log, fired{at: p.s.Now(), id: -3})
			p.s.RunUntil(p.s.Now())
		} else if err != nil {
			panic(err)
		}
		p.log = append(p.log, fired{at: p.s.Now(), id: -1})
	}
	return p.log
}

func newTrainProg(s *Scheduler, seed int64, mode trainMode) *trainProg {
	return &trainProg{s: s, rng: rand.New(rand.NewSource(seed)), mode: mode}
}

func TestQuickTrainsDispatchLikeSeparateEvents(t *testing.T) {
	const forever = Time(1 << 40)
	inline, lowered, hCancels, resets := 0, 0, 0, 0
	f := func(seed int64) bool {
		want := newTrainProg(NewScheduler(seed), seed, separate).run(forever)
		for _, mode := range []trainMode{refire, ahead} {
			p := newTrainProg(NewScheduler(seed), seed, mode)
			if got := p.run(forever); !slices.Equal(got, want) {
				t.Logf("seed %d: trains walked in mode %d diverge from separate events\n got %v\nwant %v", seed, mode, got, want)
				return false
			}
			inline += p.inline
			lowered += p.lowered
			hCancels += p.hCancels
			resets += p.resets
		}
		// The same program on a scheduler Reset with trains mid-walk: the
		// pending entries are swept, their refs go stale, and the rerun
		// cannot tell the scheduler from a fresh one.
		s := NewScheduler(seed + 1)
		dirty := newTrainProg(s, seed+1, ahead)
		dirty.run(6)
		s.Reset(seed)
		if s.Pending() != 0 {
			t.Logf("seed %d: %d events pending after Reset", seed, s.Pending())
			return false
		}
		for _, ref := range dirty.plain {
			if ref.Pending() {
				t.Logf("seed %d: pre-Reset ref still pending", seed)
				return false
			}
			s.Cancel(ref)
		}
		if got := newTrainProg(s, seed, ahead).run(forever); !slices.Equal(got, want) {
			t.Logf("seed %d: rerun after Reset diverges\n got %v\nwant %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
	if inline == 0 {
		t.Error("no sub-event ever ran ahead; the property compared Refire with itself")
	}
	t.Logf("%d sub-events ran ahead; %d pushes lowered the horizon, %d cancels hit its source, %d Resets inside callbacks", inline, lowered, hCancels, resets)
	if lowered == 0 || hCancels == 0 || resets == 0 {
		t.Errorf("horizon lowered by %d pushes, its source cancelled %d times, %d Resets inside callbacks; want each > 0", lowered, hCancels, resets)
	}
}

// TestResetRecyclesPendingTrain pins the Reset case down without
// randomness: a train one step into its walk is swept, its slot returns to
// the freelist and the walk never resumes.
func TestResetRecyclesPendingTrain(t *testing.T) {
	s := NewScheduler(1)
	steps := 0
	base := s.ReserveSeq(3)
	var walk func(any)
	walk = func(any) {
		steps++
		if steps < 3 {
			s.Refire(s.Now()+1, base+uint64(steps))
		}
	}
	ref := s.AtFuncSeq(1, base, walk, nil)
	s.Step()
	if steps != 1 || s.Pending() != 1 || ref.Pending() {
		t.Fatalf("after one step: steps=%d pending=%d ref pending=%v, want 1, 1, false", steps, s.Pending(), ref.Pending())
	}
	s.Reset(1)
	if s.Pending() != 0 {
		t.Fatalf("pending = %d after Reset, want 0", s.Pending())
	}
	s.Cancel(ref) // stale: must not touch the recycled slot
	fired := 0
	fresh := s.At(1, func() { fired++ })
	if fresh.e != ref.e {
		t.Error("the train's slot was not recycled by Reset")
	}
	s.Run()
	if steps != 1 || fired != 1 {
		t.Errorf("after Reset: train stepped %d times, fresh event fired %d times; want 1, 1", steps, fired)
	}
}

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", name)
		}
	}()
	fn()
}

func TestTrainMisusePanics(t *testing.T) {
	noop := func(any) {}
	s := NewScheduler(1)
	base := s.ReserveSeq(2)
	mustPanic(t, "Refire outside a callback", func() { s.Refire(1, base) })
	mustPanic(t, "Advance outside a callback", func() { s.Advance(1, base) })
	mustPanic(t, "AtFuncSeq under an unreserved number", func() { s.AtFuncSeq(1, base+2, noop, nil) })
	s.AtFuncSeq(10, base, func(any) {
		mustPanic(t, "Refire into the past", func() { s.Refire(9, base+1) })
		mustPanic(t, "Refire under an unreserved number", func() { s.Refire(11, base+3) })
		mustPanic(t, "Advance into the past", func() { s.Advance(9, base+1) })
		mustPanic(t, "Advance under an unreserved number", func() { s.Advance(11, base+3) })
		mustPanic(t, "Step inside a callback", func() { s.Step() })
		s.Refire(10, base+1)
		mustPanic(t, "second Refire in one dispatch", func() { s.Refire(12, base+1) })
		mustPanic(t, "Advance after Refire", func() { s.Advance(12, base+1) })
	}, nil)
	s.Step()
	if s.Pending() != 1 || s.Now() != 10 {
		t.Fatalf("pending=%d now=%v after the first step, want 1 and 10ns", s.Pending(), s.Now())
	}
}

// walker is a hand-laid train for the explicit cases below: sub-event j
// fires at (at[j], seq[j]), keys ascending, and runs hook(j) from inside the
// callback. Sub-events and the plain events beside them append to one log,
// "<name>@<time>" each.
type walker struct {
	s      *Scheduler
	log    *[]string
	at     []Time
	seq    []uint64
	pos    int
	inline int // sub-events reached through Advance
	cut    bool
	hook   func(sub int)
}

func walkerFn(a any) {
	w := a.(*walker)
	for {
		sub := w.pos
		w.pos++
		*w.log = append(*w.log, fmt.Sprintf("sub%d@%d", sub, w.s.Now()))
		if w.hook != nil {
			w.hook(sub)
		}
		if w.pos == len(w.at) || w.cut {
			return
		}
		if !w.s.Advance(w.at[w.pos], w.seq[w.pos]) {
			w.s.Refire(w.at[w.pos], w.seq[w.pos])
			return
		}
		w.inline++
	}
}

// newWalker queues a train over consecutive fresh sequence numbers.
func newWalker(s *Scheduler, log *[]string, at ...Time) *walker {
	w := &walker{s: s, log: log, at: at}
	base := s.ReserveSeq(len(at))
	for j := range at {
		w.seq = append(w.seq, base+uint64(j))
	}
	s.AtFuncSeq(at[0], base, walkerFn, w)
	return w
}

func plainAt(s *Scheduler, log *[]string, name string, at Time) {
	s.At(at, func() { *log = append(*log, fmt.Sprintf("%s@%d", name, s.Now())) })
}

func wantLog(t *testing.T, got *[]string, want ...string) {
	t.Helper()
	if !slices.Equal(*got, want) {
		t.Fatalf("dispatch log %v, want %v", *got, want)
	}
	*got = (*got)[:0]
}

func TestTrainStopHaltsRunAheadAndResumes(t *testing.T) {
	s, log := NewScheduler(1), new([]string)
	w := newWalker(s, log, 1, 2, 3, 4)
	w.hook = func(sub int) {
		if sub == 1 {
			s.Stop()
		}
	}
	s.RunUntil(10)
	wantLog(t, log, "sub0@1", "sub1@2")
	if s.Now() != 2 || s.Pending() != 1 || s.Dispatched() != 2 {
		t.Fatalf("stopped at now=%v pending=%d dispatched=%d, want 2, 1, 2", s.Now(), s.Pending(), s.Dispatched())
	}
	s.RunUntil(10)
	wantLog(t, log, "sub2@3", "sub3@4")
	if s.Now() != 10 || s.Pending() != 0 || s.Dispatched() != 4 {
		t.Fatalf("resumed to now=%v pending=%d dispatched=%d, want 10, 0, 4", s.Now(), s.Pending(), s.Dispatched())
	}
	if w.inline != 2 {
		t.Errorf("%d sub-events ran ahead, want 2 (one before the Stop, one after the resume)", w.inline)
	}
}

func TestTrainDeadlineBetweenSubEvents(t *testing.T) {
	s, log := NewScheduler(1), new([]string)
	w := newWalker(s, log, 1, 3, 5, 5)
	s.RunUntil(2)
	wantLog(t, log, "sub0@1")
	if s.Now() != 2 || s.Pending() != 1 {
		t.Fatalf("now=%v pending=%d after a deadline between sub-events, want 2 and 1", s.Now(), s.Pending())
	}
	// A sub-event exactly at the deadline belongs to the run, as an event's
	// would.
	if err := s.RunUntilWithCheck(3, 100, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	wantLog(t, log, "sub1@3")
	if s.Now() != 3 || s.Pending() != 1 {
		t.Fatalf("now=%v pending=%d after a deadline on a sub-event, want 3 and 1", s.Now(), s.Pending())
	}
	// Outside any run loop nothing fences the walk in.
	s.Step()
	wantLog(t, log, "sub2@5", "sub3@5")
	if w.inline != 1 || s.Pending() != 0 {
		t.Fatalf("a bare Step ran %d sub-events ahead and left %d queued, want 1 and 0", w.inline, s.Pending())
	}
}

func TestTrainInterleavesWithSameInstantEvents(t *testing.T) {
	s, log := NewScheduler(1), new([]string)
	// Keys at t=5 in sequence order: sub0, plain a, sub1, sub2, plain b.
	w := &walker{s: s, log: log, at: []Time{5, 5, 5}}
	w.seq = append(w.seq, s.ReserveSeq(1))
	plainAt(s, log, "a", 5)
	w.seq = append(w.seq, s.ReserveSeq(1), s.ReserveSeq(1))
	plainAt(s, log, "b", 5)
	s.AtFuncSeq(5, w.seq[0], walkerFn, w)
	s.Run()
	wantLog(t, log, "sub0@5", "a@5", "sub1@5", "sub2@5", "b@5")
	if w.inline != 1 {
		t.Errorf("%d sub-events ran ahead, want 1: sub1 waits for a, sub2 precedes b", w.inline)
	}
}

// TestTrainYieldsToOlderReservedNumber has a sub-event spend, at its own
// instant, a number reserved before the train's: that event orders ahead of
// the running one, which is then no longer the queue's root, and the next
// sub-event has to wait its turn behind it.
func TestTrainYieldsToOlderReservedNumber(t *testing.T) {
	s, log := NewScheduler(1), new([]string)
	old := s.ReserveSeq(1)
	w := newWalker(s, log, 5, 5, 6)
	w.hook = func(sub int) {
		if sub == 0 {
			s.AtFuncSeq(5, old, func(any) { *log = append(*log, "old@5") }, nil)
		}
	}
	s.Run()
	wantLog(t, log, "sub0@5", "old@5", "sub1@5", "sub2@6")
	if w.inline != 1 {
		t.Errorf("%d sub-events ran ahead, want 1 (sub2 only)", w.inline)
	}
}

func TestTrainFallsBackWhenSubEventSchedulesEarlier(t *testing.T) {
	for _, tc := range []struct {
		plain  Time
		want   []string
		inline int
	}{
		{2, []string{"sub0@1", "p@2", "sub1@3"}, 0},
		{4, []string{"sub0@1", "sub1@3", "p@4"}, 1},
	} {
		s, log := NewScheduler(1), new([]string)
		w := newWalker(s, log, 1, 3)
		w.hook = func(sub int) {
			if sub == 0 {
				plainAt(s, log, "p", tc.plain)
			}
		}
		s.Run()
		wantLog(t, log, tc.want...)
		if w.inline != tc.inline {
			t.Errorf("event scheduled for t=%d from sub0: %d sub-events ran ahead, want %d", tc.plain, w.inline, tc.inline)
		}
	}
}

// TestTrainResetInsideSubEvent sweeps the scheduler from inside a train's
// own sub-event, under a polled run with a deadline: the train is gone, its
// callback may neither advance nor re-key, the loop polls again at once
// (its mark was counted in the old Dispatched) and still holds whatever is
// scheduled after the Reset to its deadline.
func TestTrainResetInsideSubEvent(t *testing.T) {
	s, log := NewScheduler(1), new([]string)
	w := newWalker(s, log, 1, 2, 3)
	var second *walker
	w.hook = func(sub int) {
		if sub != 1 {
			return
		}
		s.Reset(1)
		w.cut = true
		mustPanic(t, "Advance after Reset", func() { s.Advance(3, 0) })
		mustPanic(t, "Refire after Reset", func() { s.Refire(3, 0) })
		second = newWalker(s, log, 5, 15)
	}
	var polledAt []uint64
	err := s.RunUntilWithCheck(10, 1000, func() error {
		polledAt = append(polledAt, s.Dispatched())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantLog(t, log, "sub0@1", "sub1@2", "sub0@5")
	if !slices.Equal(polledAt, []uint64{0, 0}) {
		t.Errorf("check polled at dispatch counts %v, want [0 0]: at the start and right after the Reset", polledAt)
	}
	if s.Now() != 10 || s.Pending() != 1 || s.Dispatched() != 1 || second.inline != 0 {
		t.Fatalf("now=%v pending=%d dispatched=%d inline=%d after the run, want 10, 1, 1, 0",
			s.Now(), s.Pending(), s.Dispatched(), second.inline)
	}
	s.Run()
	wantLog(t, log, "sub1@15")
}

// TestTrainDeadlineMovesBack cuts a run short with its check, in the middle
// of an instant, and resumes under a nearer deadline: the horizon the cut
// run computed from its own deadline must not carry over, or the walk would
// run ahead past the new one.
func TestTrainDeadlineMovesBack(t *testing.T) {
	s, log := NewScheduler(1), new([]string)
	newWalker(s, log, 1, 1, 1, 2, 2)
	cut := errors.New("cut")
	err := s.RunUntilWithCheck(10, 2, func() error {
		if s.Dispatched() == 2 {
			return cut
		}
		return nil
	})
	if err != cut {
		t.Fatalf("run returned %v, want the check's error", err)
	}
	wantLog(t, log, "sub0@1", "sub1@1")
	s.RunUntil(1)
	wantLog(t, log, "sub2@1")
	if s.Now() != 1 || s.Pending() != 1 {
		t.Fatalf("now=%v pending=%d under deadline 1, want 1 and 1", s.Now(), s.Pending())
	}
	s.RunUntil(10)
	wantLog(t, log, "sub3@2", "sub4@2")
}

// TestTrainPolledEveryIntervalOfSubEvents runs one 81-car train — a frame
// to 40 neighbors — under a check polled every 16 dispatches: the check
// must see every sixteenth callback although a single Step could cover all
// 81, and an error from it must stop the train where it stands.
func TestTrainPolledEveryIntervalOfSubEvents(t *testing.T) {
	s, log := NewScheduler(1), new([]string)
	at := make([]Time, 81)
	for j := range at {
		at[j] = Time(1 + j)
	}
	w := newWalker(s, log, at...)
	stop := errors.New("cancelled")
	var polledAt []uint64
	err := s.RunUntilWithCheck(1000, 16, func() error {
		polledAt = append(polledAt, s.Dispatched())
		if s.Dispatched() == 48 {
			return stop
		}
		return nil
	})
	if err != stop {
		t.Fatalf("run returned %v, want the check's error", err)
	}
	if !slices.Equal(polledAt, []uint64{0, 16, 32, 48}) {
		t.Errorf("check polled at dispatch counts %v, want [0 16 32 48]", polledAt)
	}
	if s.Now() != 48 || s.Pending() != 1 || w.pos != 48 {
		t.Fatalf("aborted at now=%v pending=%d after %d sub-events, want 48, 1, 48", s.Now(), s.Pending(), w.pos)
	}
	if w.inline != 48-3 {
		t.Errorf("%d sub-events ran ahead, want 45: all but the three dispatched after a poll", w.inline)
	}
}

// TestTrainScansHeapOncePerDispatch pins the horizon's saving: a frame to
// 40 neighbors is one dispatch of 81 sub-events, and it reads the heap once,
// not before each of its 80 run-aheads — also while every sub-event re-arms
// a timer the way a MAC does on each indication, pushing a key past the
// walk and cancelling the previous one, the event the horizon came from.
func TestTrainScansHeapOncePerDispatch(t *testing.T) {
	for _, churn := range []bool{false, true} {
		s, log := NewScheduler(1), new([]string)
		at := make([]Time, 81)
		for j := range at {
			at[j] = Time(1 + j)
		}
		w := newWalker(s, log, at...)
		var timer EventRef
		if churn {
			w.hook = func(int) {
				s.Cancel(timer)
				timer = s.At(s.Now()+500, func() {})
			}
		}
		s.RunUntil(1000)
		if w.pos != 81 || w.inline != 80 || s.scans != 1 {
			t.Errorf("churn %v: %d sub-events, %d ran ahead, %d heap scans; want 81, 80, 1", churn, w.pos, w.inline, s.scans)
		}
	}
}
