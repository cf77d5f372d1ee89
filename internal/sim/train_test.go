package sim

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// A "train" is one queue entry walking several sub-events under reserved
// sequence numbers (ReserveSeq + AtFuncSeq + Refire). The property below
// runs one random program twice — trains walked in place, and every
// sub-event scheduled as an AtFunc of its own — and demands the identical
// dispatch log, which is the equivalence the PHY's transmission walk rests
// on.

// fired is one log entry: the dispatch key and which sub-event ran. A
// marker entry (id -1) records where each RunUntil call stopped.
type fired struct {
	at      Time
	seq     uint64
	id, sub int
}

type trainProg struct {
	s      *Scheduler
	rng    *rand.Rand
	walk   bool // walk trains in place; otherwise one AtFunc per sub-event
	log    []fired
	plain  []EventRef // every plain event ever scheduled, for cancels
	nextID int
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
	e.p.fire(e.id, -1, e.ref)
}

func carFn(a any) {
	c := a.(*car)
	c.tr.p.fire(c.tr.id, c.sub, c.tr.refs[c.sub])
}

func walkFn(a any) {
	tr := a.(*trainSpec)
	sub := tr.order[tr.pos]
	tr.pos++
	tr.p.fire(tr.id, sub, tr.refs[0])
	if tr.pos < len(tr.order) {
		next := tr.order[tr.pos]
		tr.p.s.Refire(tr.at[next], tr.base+uint64(next))
	}
}

// fire logs the dispatching (sub-)event and then misbehaves at random:
// schedules more work (often at this very instant), cancels its own stale
// ref, cancels somebody else, or stops the run.
func (p *trainProg) fire(id, sub int, self EventRef) {
	p.log = append(p.log, fired{p.s.Now(), p.s.cur.seq, id, sub})
	if self.Pending() {
		p.log = append(p.log, fired{id: -2}) // own ref must be stale by now
	}
	switch p.rng.Intn(10) {
	case 0, 1, 2:
		p.newPlain()
	case 3, 4:
		p.newTrain()
	case 5:
		p.s.Cancel(self)
	case 6:
		p.s.Cancel(p.plain[p.rng.Intn(len(p.plain))])
	case 7:
		p.s.Stop()
	}
}

func (p *trainProg) newPlain() {
	if p.nextID >= maxObjects {
		return
	}
	e := &plainEv{p: p, id: p.nextID}
	p.nextID++
	e.ref = p.s.AtFunc(p.s.Now()+Time(p.rng.Intn(4)), plainFn, e)
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
	if !p.walk {
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
// to resume them.
func (p *trainProg) run(until Time) []fired {
	p.newPlain()
	p.newTrain()
	p.newTrain()
	for deadline := Time(3); p.s.Pending() > 0 && deadline <= until; deadline += 3 {
		p.s.RunUntil(deadline)
		p.log = append(p.log, fired{at: p.s.Now(), id: -1})
	}
	return p.log
}

func newTrainProg(s *Scheduler, seed int64, walk bool) *trainProg {
	return &trainProg{s: s, rng: rand.New(rand.NewSource(seed)), walk: walk}
}

func TestQuickTrainsDispatchLikeSeparateEvents(t *testing.T) {
	const forever = Time(1 << 40)
	f := func(seed int64) bool {
		want := newTrainProg(NewScheduler(seed), seed, false).run(forever)
		got := newTrainProg(NewScheduler(seed), seed, true).run(forever)
		if !slices.Equal(got, want) {
			t.Logf("seed %d: walked trains diverge from separate events\n got %v\nwant %v", seed, got, want)
			return false
		}
		// The same program on a scheduler Reset with trains mid-walk: the
		// pending entries are swept, their refs go stale, and the rerun
		// cannot tell the scheduler from a fresh one.
		s := NewScheduler(seed + 1)
		dirty := newTrainProg(s, seed+1, true)
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
		if got := newTrainProg(s, seed, true).run(forever); !slices.Equal(got, want) {
			t.Logf("seed %d: rerun after Reset diverges\n got %v\nwant %v", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
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

func TestTrainMisusePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	noop := func(any) {}
	s := NewScheduler(1)
	base := s.ReserveSeq(2)
	mustPanic("Refire outside a callback", func() { s.Refire(1, base) })
	mustPanic("AtFuncSeq under an unreserved number", func() { s.AtFuncSeq(1, base+2, noop, nil) })
	s.AtFuncSeq(10, base, func(any) {
		mustPanic("Refire into the past", func() { s.Refire(9, base+1) })
		mustPanic("Refire under an unreserved number", func() { s.Refire(11, base+3) })
		mustPanic("Step inside a callback", func() { s.Step() })
		s.Refire(10, base+1)
		mustPanic("second Refire in one dispatch", func() { s.Refire(12, base+1) })
	}, nil)
	s.Step()
	if s.Pending() != 1 || s.Now() != 10 {
		t.Fatalf("pending=%d now=%v after the first step, want 1 and 10ns", s.Pending(), s.Now())
	}
}
