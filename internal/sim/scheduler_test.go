package sim

import (
	"errors"
	"testing"
	"time"
)

func TestSchedulerRunsEventsInTimeOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	s.At(3*time.Millisecond, func() { got = append(got, 3) })
	s.At(1*time.Millisecond, func() { got = append(got, 1) })
	s.At(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", s.Now())
	}
}

func TestSchedulerTiesBreakInCreationOrder(t *testing.T) {
	s := NewScheduler(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie order = %v, want ascending", got)
		}
	}
}

func TestSchedulerAfterUsesCurrentTime(t *testing.T) {
	s := NewScheduler(1)
	var fired Time
	s.At(5*time.Millisecond, func() {
		s.After(2*time.Millisecond, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 7*time.Millisecond {
		t.Errorf("nested After fired at %v, want 7ms", fired)
	}
}

func TestSchedulerCancelPreventsFiring(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	ev := s.At(time.Millisecond, func() { fired = true })
	s.Cancel(ev)
	s.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Error("event not marked cancelled")
	}
}

func TestSchedulerCancelAfterFireIsNoop(t *testing.T) {
	s := NewScheduler(1)
	ev := s.At(time.Millisecond, func() {})
	s.Run()
	s.Cancel(ev) // must not panic or corrupt the heap
	s.At(2*time.Millisecond, func() {})
	s.Run()
}

func TestSchedulerCancelZeroRefIsNoop(t *testing.T) {
	s := NewScheduler(1)
	s.Cancel(EventRef{})
}

func TestSchedulerStaleCancelDoesNotHitRecycledSlot(t *testing.T) {
	s := NewScheduler(1)
	stale := s.At(time.Millisecond, func() {})
	s.Run() // fires; the event slot returns to the freelist
	fired := false
	fresh := s.At(2*time.Millisecond, func() { fired = true })
	s.Cancel(stale) // stale handle: must not cancel the recycled slot
	if fresh.Cancelled() {
		t.Fatal("fresh event reported cancelled after stale Cancel")
	}
	s.Run()
	if !fired {
		t.Error("stale Cancel killed an unrelated recycled event")
	}
}

func TestSchedulerSteadyStateSchedulingDoesNotAllocate(t *testing.T) {
	s := NewScheduler(1)
	tick := func() {}
	// Warm the freelist, then require the schedule+dispatch cycle to reuse
	// slots without touching the heap allocator.
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, tick)
	}
	s.Run()
	// A train — one entry re-keyed through nine reserved sequence numbers —
	// rides the same freelist and must not allocate either.
	var base uint64
	steps := 0
	var walk func(any)
	walk = func(any) {
		if steps++; steps%9 != 0 {
			s.Refire(s.Now()+time.Microsecond, base+uint64(steps%9))
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 16; i++ {
			s.After(time.Microsecond, tick)
		}
		base = s.ReserveSeq(9)
		s.AtFuncSeq(s.Now()+time.Microsecond, base, walk, nil)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/dispatch allocates %.1f objects per cycle, want 0", allocs)
	}
	if steps%9 != 0 || steps == 0 {
		t.Errorf("train walked %d steps, want a multiple of 9", steps)
	}
}

func TestSchedulerAtFuncPassesArgument(t *testing.T) {
	s := NewScheduler(1)
	var got, got2 any
	s.AtFunc(time.Millisecond, func(a any) { got = a }, 42)
	s.AfterFunc(2*time.Millisecond, func(a any) { got2 = a }, "x")
	s.Run()
	if got != 42 || got2 != "x" {
		t.Errorf("AtFunc/AfterFunc args = %v, %v; want 42, x", got, got2)
	}
}

func TestSchedulerPastSchedulingPanics(t *testing.T) {
	s := NewScheduler(1)
	s.At(10*time.Millisecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5*time.Millisecond, func() {})
	})
	s.Run()
}

func TestSchedulerNilCallbackPanics(t *testing.T) {
	s := NewScheduler(1)
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	s.At(0, nil)
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Errorf("executed %d events after Stop, want 3", count)
	}
	if s.Pending() != 7 {
		t.Errorf("pending = %d, want 7", s.Pending())
	}
}

func TestSchedulerRunUntil(t *testing.T) {
	s := NewScheduler(1)
	var fired []Time
	for i := 1; i <= 5; i++ {
		d := Time(i) * time.Millisecond
		s.At(d, func() { fired = append(fired, d) })
	}
	s.RunUntil(3 * time.Millisecond)
	if len(fired) != 3 {
		t.Fatalf("fired %d events, want 3", len(fired))
	}
	if s.Now() != 3*time.Millisecond {
		t.Errorf("Now = %v, want 3ms", s.Now())
	}
	s.RunUntil(10 * time.Millisecond)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
	if s.Now() != 10*time.Millisecond {
		t.Errorf("Now = %v, want clock advanced to deadline", s.Now())
	}
}

func TestSchedulerRunUntilEmptyQueueAdvancesClock(t *testing.T) {
	s := NewScheduler(1)
	s.RunUntil(42 * time.Millisecond)
	if s.Now() != 42*time.Millisecond {
		t.Errorf("Now = %v, want 42ms", s.Now())
	}
}

func TestSchedulerDeterministicWithSameSeed(t *testing.T) {
	run := func(seed int64) []int64 {
		s := NewScheduler(seed)
		var draws []int64
		var step func()
		step = func() {
			draws = append(draws, s.Rand().Int63n(1000))
			if len(draws) < 20 {
				s.After(Time(s.Rand().Int63n(100))*time.Microsecond+1, step)
			}
		}
		s.At(0, step)
		s.Run()
		return draws
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical draws")
	}
}

func TestSchedulerDispatchedCounter(t *testing.T) {
	s := NewScheduler(1)
	for i := 0; i < 5; i++ {
		s.At(Time(i)*time.Millisecond, func() {})
	}
	s.Run()
	if s.Dispatched() != 5 {
		t.Errorf("Dispatched = %d, want 5", s.Dispatched())
	}
}

func TestTimerResetAndFire(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	tm := NewTimer(s, func() { fired++ })
	tm.Reset(5 * time.Millisecond)
	if !tm.Pending() {
		t.Fatal("timer not pending after Reset")
	}
	if tm.Deadline() != 5*time.Millisecond {
		t.Errorf("Deadline = %v, want 5ms", tm.Deadline())
	}
	s.Run()
	if fired != 1 {
		t.Fatalf("fired %d times, want 1", fired)
	}
	if tm.Pending() {
		t.Error("timer still pending after firing")
	}
}

func TestTimerResetReplacesPendingExpiry(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	tm := NewTimer(s, func() { at = s.Now() })
	tm.Reset(5 * time.Millisecond)
	tm.Reset(9 * time.Millisecond)
	s.Run()
	if at != 9*time.Millisecond {
		t.Errorf("timer fired at %v, want 9ms (single firing at new deadline)", at)
	}
}

func TestTimerStop(t *testing.T) {
	s := NewScheduler(1)
	fired := false
	tm := NewTimer(s, func() { fired = true })
	tm.Reset(time.Millisecond)
	tm.Stop()
	s.Run()
	if fired {
		t.Error("stopped timer fired")
	}
	tm.Stop() // idempotent
}

func TestTimerResetInsideCallback(t *testing.T) {
	s := NewScheduler(1)
	count := 0
	var tm *Timer
	tm = NewTimer(s, func() {
		count++
		if count < 3 {
			tm.Reset(time.Millisecond)
		}
	})
	tm.Reset(time.Millisecond)
	s.Run()
	if count != 3 {
		t.Errorf("periodic timer fired %d times, want 3", count)
	}
}

func TestTimerResetAt(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	tm := NewTimer(s, func() { at = s.Now() })
	tm.ResetAt(17 * time.Millisecond)
	s.Run()
	if at != 17*time.Millisecond {
		t.Errorf("fired at %v, want 17ms", at)
	}
}

func TestRunUntilWithCheckMatchesRunUntil(t *testing.T) {
	build := func() *Scheduler {
		s := NewScheduler(1)
		for i := 1; i <= 10; i++ {
			i := i
			s.At(Time(i)*time.Millisecond, func() {
				if i%2 == 0 {
					s.After(500*time.Microsecond, func() {})
				}
			})
		}
		return s
	}
	a := build()
	a.RunUntil(20 * time.Millisecond)
	b := build()
	if err := b.RunUntilWithCheck(20*time.Millisecond, 3, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	if a.Now() != b.Now() || a.Dispatched() != b.Dispatched() {
		t.Errorf("checked run diverged: now %v/%v, dispatched %d/%d",
			a.Now(), b.Now(), a.Dispatched(), b.Dispatched())
	}
}

func TestRunUntilWithCheckAborts(t *testing.T) {
	s := NewScheduler(1)
	fired := 0
	for i := 1; i <= 100; i++ {
		s.At(Time(i)*time.Millisecond, func() { fired++ })
	}
	boom := errors.New("cancelled")
	calls := 0
	err := s.RunUntilWithCheck(time.Second, 10, func() error {
		calls++
		if calls == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want %v", err, boom)
	}
	// Checks run every 10 events: the third check happens after 20
	// dispatches, before event 21 fires.
	if fired != 20 {
		t.Errorf("fired %d events before abort, want 20", fired)
	}
	if s.Now() >= time.Second {
		t.Error("clock advanced to the deadline despite the abort")
	}
}
