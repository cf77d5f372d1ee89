// Package sim provides the discrete-event simulation kernel used by every
// other layer of the simulator: a virtual clock, an event heap with
// deterministic ordering, cancellable timers, and a seeded random number
// source.
//
// The kernel is strictly single-threaded. All protocol code runs inside
// event callbacks dispatched by (*Scheduler).Run, so no locking is needed
// anywhere in the simulator and every run is exactly reproducible from its
// seed.
//
// The hot path is allocation-free: events live in a scheduler-owned
// freelist and are recycled after dispatch or cancellation, and the queue
// is a concrete 4-ary heap rather than container/heap's interface-based
// binary heap. Callers hold EventRef handles whose generation counter makes
// stale cancels (after the event fired and its slot was reused) safe
// no-ops. For callbacks that would otherwise capture state, AtFunc/AfterFunc
// take a plain function plus an argument so scheduling does not allocate a
// closure either.
//
// One queue entry may stand for a train of sub-events under sequence
// numbers reserved up front (ReserveSeq, AtFuncSeq). After each sub-event
// the callback asks Advance whether the train's next key is also the
// queue's: if so the clock moves there and the callback runs the next
// sub-event itself, without a round trip through Step; if anything else is
// due first it re-keys the entry with Refire and returns. Either way the
// sub-events dispatch in the exact (time, seq) order separate events would
// have had.
//
// Advance answers from a horizon the scheduler holds while a callback runs:
// a key no later than any other queued event and no later than the run
// loop's deadline. A key before the horizon runs ahead without reading the
// heap; any other key takes the exact check over the root's children, which
// also recomputes the horizon. A push earlier than the horizon lowers it.
// Removals need no bookkeeping: taking an event out of the queue can only
// make the true minimum later, so a stale horizon is merely low, costs one
// exact check, and never lets a sub-event run ahead of an event still
// queued. So a train of k sub-events reads the heap once per dispatch, not
// k times, however much timer traffic its callbacks cancel.
package sim

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Time is a point in simulated time, measured as a duration since the start
// of the simulation. The zero value is the simulation epoch.
type Time = time.Duration

// Event is one scheduled callback slot. Events are owned and recycled by
// the scheduler; external code refers to them only through EventRef.
type Event struct {
	at  Time
	seq uint64 // creation order; breaks ties deterministically
	idx int32  // heap index, -1 while not queued
	gen uint32 // bumped on every recycle; validates EventRef handles

	fn   func()    // closure form (At/After)
	fnA  func(any) // argument form (AtFunc/AfterFunc)
	arg  any
	next *Event // freelist link
}

// EventRef is a handle to a scheduled event. The zero value refers to no
// event; Cancel on it is a no-op. A ref goes stale once its event fires or
// is cancelled — stale refs are detected by generation and ignored, so
// protocol code may keep refs around without lifecycle bookkeeping.
type EventRef struct {
	e   *Event
	gen uint32
}

// Pending reports whether the referenced event is still queued.
func (r EventRef) Pending() bool {
	return r.e != nil && r.e.gen == r.gen && r.e.idx >= 0
}

// Cancelled reports that the referenced event will never fire anymore
// through this handle: it was cancelled (or already fired and its slot
// recycled). The zero ref reports true.
func (r EventRef) Cancelled() bool { return !r.Pending() }

// At returns the scheduled fire time; only meaningful while Pending.
func (r EventRef) At() Time {
	if !r.Pending() {
		return 0
	}
	return r.e.at
}

// Scheduler is a discrete-event scheduler. The zero value is not usable;
// create one with NewScheduler.
type Scheduler struct {
	now     Time
	seq     uint64
	heap    []*Event
	free    *Event
	src     rand.Source
	rng     *rand.Rand //manetsim:resetsafe identity kept across resets; reseeding src restarts its stream
	stopped bool
	// cur is the event whose callback is running. It stays queued (its
	// generation already bumped) until the callback returns, so Refire can
	// re-key it in place; nil outside callbacks and once re-keyed.
	cur *Event
	// dispatched counts events that have fired (for diagnostics and tests).
	dispatched uint64
	// deadline and pollAt fence Advance in on behalf of the run loop in
	// progress: no sub-event runs inline past the loop's deadline or once
	// its check is due. The loop sets both and lifts them on return.
	deadline Time //manetsim:resetsafe belongs to the run loop in progress; a Reset from inside a callback must not lift it
	pollAt   uint64
	// hAt, hSeq is Advance's horizon while a callback runs: no later than
	// any other queued event and than (deadline+1, 0). The zero key clears
	// it — no (t, seq) orders before it — and Step clears it after every
	// dispatch, Stop and Reset at once. scans counts Advance's exact
	// checks over the heap (for tests).
	hAt   Time
	hSeq  uint64
	scans uint64
}

// No run loop is in progress, or it has no deadline / no check to poll.
const (
	noDeadline = Time(math.MaxInt64)
	noPoll     = uint64(math.MaxUint64)
)

// NewScheduler allocates a scheduler and its random source, then Resets it.
func NewScheduler(seed int64) *Scheduler {
	s := &Scheduler{src: rand.NewSource(seed), deadline: noDeadline, pollAt: noPoll}
	s.rng = rand.New(s.src)
	s.Reset(seed)
	return s
}

// Reset sets the scheduler up for a run from seed while keeping every
// allocation; NewScheduler ends with it. Pending events move to the
// freelist, the clock and sequence counter return to zero, and the random
// stream restarts so a reset run draws the exact same values event for
// event. The *rand.Rand returned by Rand keeps its identity across resets,
// so bindings taken before the reset stay valid. Releasing the pending
// events bumps their generations, which turns every outstanding EventRef
// (and Timer) into a safe stale no-op.
func (s *Scheduler) Reset(seed int64) {
	for _, e := range s.heap {
		s.release(e)
	}
	s.heap = s.heap[:0]
	s.now = 0
	s.seq = 0
	s.stopped = false
	s.cur = nil
	s.dispatched = 0
	s.hAt, s.hSeq = 0, 0
	s.scans = 0
	if s.pollAt != noPoll {
		s.pollAt = 0 // counted in the old dispatched; the loop polls again at once
	}
	s.src.Seed(seed)
}

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source. All protocol
// randomness (backoff draws, jitter, topology placement) must come from
// this source so runs are reproducible.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// Dispatched returns the number of events executed so far.
func (s *Scheduler) Dispatched() uint64 { return s.dispatched }

// ReserveSeq sets aside n consecutive sequence numbers — the ones the next
// n At/AtFunc calls would have drawn — and returns the first. The caller
// spends them through AtFuncSeq and Refire, which lets one event stand for
// n and still fire at the exact (time, seq) keys of the n.
func (s *Scheduler) ReserveSeq(n int) uint64 {
	base := s.seq
	s.seq += uint64(n)
	return base
}

// alloc takes an event slot from the freelist (or the heap allocator when
// the freelist is dry) and stamps it with the schedule key. A key earlier
// than the horizon lowers it; a cleared horizon has nothing earlier and
// stays cleared. Every push follows an alloc, and lowering here rather than
// in push keeps push small enough to inline.
func (s *Scheduler) alloc(t Time, seq uint64) *Event {
	if t < s.now || seq >= s.seq {
		s.badKey(t, seq)
	}
	if t < s.hAt || t == s.hAt && seq < s.hSeq {
		s.hAt, s.hSeq = t, seq
	}
	e := s.free
	if e != nil {
		s.free = e.next
		e.next = nil
	} else {
		e = &Event{}
	}
	e.at = t
	e.seq = seq
	return e
}

// badKey panics on a key that would corrupt causality: a time in the past
// always indicates a protocol bug, and a sequence number nobody reserved
// could collide with a later event's. Callers test inline; this is the
// cold half.
func (s *Scheduler) badKey(t Time, seq uint64) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	panic(fmt.Sprintf("sim: sequence number %d was never reserved (next is %d)", seq, s.seq))
}

// release recycles a dispatched or cancelled event slot. Bumping the
// generation invalidates every outstanding EventRef to it.
func (s *Scheduler) release(e *Event) {
	e.gen++
	e.fn = nil
	e.fnA = nil
	e.arg = nil
	e.idx = -1
	e.next = s.free
	s.free = e
}

// At schedules fn to run at absolute simulated time t. Scheduling in the
// past (t < Now) panics: it always indicates a protocol bug, and silently
// reordering events would corrupt causality.
func (s *Scheduler) At(t Time, fn func()) EventRef {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	e := s.alloc(t, s.ReserveSeq(1))
	e.fn = fn
	s.push(e)
	return EventRef{e: e, gen: e.gen}
}

// AtFunc schedules fn(arg) at absolute time t. Unlike At, the callback is a
// plain function plus an argument, so hot paths schedule without allocating
// a closure.
//
//manetsim:hotpath
func (s *Scheduler) AtFunc(t Time, fn func(any), arg any) EventRef {
	return s.AtFuncSeq(t, s.ReserveSeq(1), fn, arg)
}

// AtFuncSeq is AtFunc under a sequence number obtained from ReserveSeq
// instead of a fresh one, so the event orders among same-instant events as
// if it had been scheduled when the number was reserved.
//
//manetsim:hotpath
func (s *Scheduler) AtFuncSeq(t Time, seq uint64, fn func(any), arg any) EventRef {
	if fn == nil {
		panic("sim: scheduling nil callback")
	}
	e := s.alloc(t, seq)
	e.fnA = fn
	e.arg = arg
	s.push(e)
	return EventRef{e: e, gen: e.gen}
}

// Refire makes the event whose callback is running fire again — same
// callback, same argument — at (t, seq), seq being a reserved number like
// AtFuncSeq's. It is valid only from inside that callback, once per
// dispatch. The event never leaves the queue: it is re-keyed where it sits
// (the root, unless the callback scheduled something ahead of it), so each
// step of a train costs one sift instead of a pop, a slot recycle and a
// push. Refs to the event went stale at its first dispatch, as for any.
//
//manetsim:hotpath
func (s *Scheduler) Refire(t Time, seq uint64) {
	e := s.cur
	if e == nil {
		panic("sim: Refire outside the event's own callback")
	}
	if t < s.now || seq >= s.seq {
		s.badKey(t, seq)
	}
	s.cur = nil
	e.at = t
	e.seq = seq
	i := int(e.idx)
	s.siftDown(i)
	if i > 0 {
		s.siftUp(i)
	}
}

// Advance reports whether (t, seq) — the next key of the train whose
// callback is running, seq being a reserved number like Refire's — is also
// the next key of the whole queue: earlier than every other pending event,
// not past the deadline of the run in progress, with no Stop and no
// cancellation check outstanding. If so it moves the clock to t, counts the
// dispatch and returns true, and the callback runs that sub-event itself;
// that is exactly what the next Step would have done, minus the trip.
// Otherwise nothing changes and the callback falls back to Refire(t, seq).
//
// A key before the horizon (see the package doc) is accepted without
// reading the heap; only a key at or past it pays the exact check.
//
//manetsim:hotpath
func (s *Scheduler) Advance(t Time, seq uint64) bool {
	e := s.cur
	if e == nil {
		panic("sim: Advance outside the event's own callback")
	}
	if t < s.now || seq >= s.seq {
		s.badKey(t, seq)
	}
	if s.dispatched >= s.pollAt {
		return false
	}
	if !(t < s.hAt || t == s.hAt && seq < s.hSeq) && !s.exact(t, seq) {
		return false
	}
	e.at = t
	e.seq = seq
	s.now = t
	s.dispatched++
	return true
}

// exact is Advance's check against the queue itself. On success it sets
// the horizon to the earliest of the others' keys and the deadline's.
func (s *Scheduler) exact(t Time, seq uint64) bool {
	s.scans++
	if s.stopped || t > s.deadline {
		return false
	}
	// The running event holds the root under the key it was dispatched at,
	// so the earliest of the others is one of the root's children. (Had the
	// callback pushed something above it — an older reserved number spent at
	// this very instant — the event or an ancestor of it would be one of
	// those children, under a key earlier than (t, seq), and refuse too.)
	// (deadline, MaxUint64) is (deadline+1, 0) without the overflow: every
	// reserved seq is below it.
	hAt, hSeq := s.deadline, uint64(math.MaxUint64)
	for _, o := range s.heap[1:min(len(s.heap), 5)] {
		if o.at < hAt || o.at == hAt && o.seq < hSeq {
			hAt, hSeq = o.at, o.seq
		}
	}
	if !(t < hAt || t == hAt && seq < hSeq) {
		return false
	}
	s.hAt, s.hSeq = hAt, hSeq
	return true
}

// After schedules fn to run d after the current time.
func (s *Scheduler) After(d Time, fn func()) EventRef {
	return s.At(s.now+d, fn)
}

// AfterFunc schedules fn(arg) to run d after the current time.
func (s *Scheduler) AfterFunc(d Time, fn func(any), arg any) EventRef {
	return s.AtFunc(s.now+d, fn, arg)
}

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op, which makes timer
// management in protocol code straightforward.
func (s *Scheduler) Cancel(r EventRef) {
	if !r.Pending() {
		return
	}
	s.remove(r.e)
	s.release(r.e)
}

// Stop makes the current Run/RunUntil call return after the in-flight event
// callback completes. It clears the horizon, so the next Advance sees it.
func (s *Scheduler) Stop() {
	s.stopped = true
	s.hAt, s.hSeq = 0, 0
}

// Pending returns the number of events waiting in the queue. The event
// whose callback is running has fired and does not count, unless it has
// re-keyed itself with Refire.
func (s *Scheduler) Pending() int {
	if s.cur != nil {
		return len(s.heap) - 1
	}
	return len(s.heap)
}

// Step executes the single earliest pending event. It returns false when
// the queue is empty.
//
//manetsim:hotpath
func (s *Scheduler) Step() bool {
	if len(s.heap) == 0 {
		return false
	}
	if s.cur != nil {
		panic("sim: Step called from inside an event callback")
	}
	e := s.heap[0]
	if e.at < s.now {
		panic(fmt.Sprintf("sim: time moving backwards: event at %v, now %v", e.at, s.now))
	}
	s.now = e.at
	s.dispatched++
	// The event stays queued while its callback runs so Refire can re-key
	// it in place. Bumping the generation first makes every outstanding
	// ref stale: a Cancel of the dispatching event from inside the
	// callback is rejected exactly as if the slot were already recycled.
	e.gen++
	s.cur = e
	if e.fnA != nil {
		e.fnA(e.arg)
	} else {
		e.fn()
	}
	s.hAt, s.hSeq = 0, 0
	// Still current: neither re-keyed by Refire nor swept by a Reset from
	// inside the callback, so the event is spent.
	if s.cur == e {
		s.cur = nil
		s.remove(e)
		s.release(e)
	}
	return true
}

// Run executes events until the queue drains or Stop is called.
func (s *Scheduler) Run() {
	s.stopped = false
	for !s.stopped && s.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline. Events scheduled
// beyond the deadline remain queued; the clock is advanced to the deadline
// if the queue drains or only later events remain.
func (s *Scheduler) RunUntil(deadline Time) {
	_ = s.runUntil(deadline, 0, nil) // no check, no error
}

// RunUntilWithCheck runs like RunUntil but invokes check() before the first
// event and then once every `every` dispatched events, sub-events of a
// train included. A non-nil error from check aborts the run immediately
// (the clock stays wherever it was) and is returned. It exists so a driver
// can poll an external cancellation signal — e.g. a context — without the
// per-event cost landing on runs that have nothing to poll: callers with no
// signal keep using RunUntil.
func (s *Scheduler) RunUntilWithCheck(deadline Time, every uint64, check func() error) error {
	return s.runUntil(deadline, max(every, 1), check)
}

// runUntil is the loop behind RunUntil (check == nil) and RunUntilWithCheck.
func (s *Scheduler) runUntil(deadline Time, every uint64, check func() error) (err error) {
	s.stopped = false
	s.deadline, s.pollAt = deadline, noPoll
	if check != nil {
		s.pollAt = s.dispatched
	}
	for !s.stopped && len(s.heap) > 0 && s.heap[0].at <= deadline {
		if s.dispatched >= s.pollAt {
			if err = check(); err != nil {
				break
			}
			s.pollAt = s.dispatched + every
		}
		s.Step()
	}
	s.deadline, s.pollAt = noDeadline, noPoll
	if err == nil && !s.stopped && s.now < deadline {
		s.now = deadline
	}
	return err
}

// The queue is a 4-ary min-heap ordered by (time, creation sequence). The
// wider fan-out halves the tree depth against a binary heap, and sift
// operations touch concrete *Event values — no interface dispatch, no
// per-push boxing.

// less orders events by (at, seq); seq is unique, so this is a total order
// and dispatch order is independent of heap shape.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (s *Scheduler) push(e *Event) {
	e.idx = int32(len(s.heap))
	s.heap = append(s.heap, e)
	s.siftUp(int(e.idx))
}

// remove deletes the event at its current heap position.
func (s *Scheduler) remove(e *Event) {
	i := int(e.idx)
	h := s.heap
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	s.heap = h[:n]
	if i < n {
		last.idx = int32(i)
		s.heap[i] = last
		s.siftDown(i)
		if i > 0 {
			s.siftUp(i)
		}
	}
	e.idx = -1
}

func (s *Scheduler) siftUp(i int) {
	h := s.heap
	e := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		p := h[parent]
		if !less(e, p) {
			break
		}
		h[i] = p
		p.idx = int32(i)
		i = parent
	}
	h[i] = e
	e.idx = int32(i)
}

func (s *Scheduler) siftDown(i int) {
	h := s.heap
	n := len(h)
	e := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if less(h[c], h[min]) {
				min = c
			}
		}
		if !less(h[min], e) {
			break
		}
		h[i] = h[min]
		h[i].idx = int32(i)
		i = min
	}
	h[i] = e
	e.idx = int32(i)
}
