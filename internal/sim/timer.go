package sim

// Timer is a restartable one-shot timer bound to a scheduler, mirroring the
// timers protocol stacks need (retransmission timers, ACK-regeneration
// timers, route expiry). The zero value is unusable; create with NewTimer.
//
// Unlike scheduling raw events, a Timer guarantees at most one pending
// expiry at a time: rescheduling implicitly cancels the previous one.
// Arming a timer does not allocate: the expiry event carries the timer
// itself as the callback argument.
type Timer struct {
	sched    *Scheduler
	fn       func() //manetsim:resetsafe Reset means rearm; the callback is bound for the timer's lifetime
	ref      EventRef
	deadline Time
}

// NewTimer returns a stopped timer that runs fn on expiry.
//
//manetsim:allow resetcomplete Timer.Reset(d) re-arms a timer; a stopped timer needs no initialising
func NewTimer(sched *Scheduler, fn func()) *Timer {
	if sched == nil {
		panic("sim: NewTimer with nil scheduler")
	}
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	return &Timer{sched: sched, fn: fn}
}

// timerFire is the shared expiry trampoline: clear the pending ref before
// running the callback so Reset/Stop inside it see an idle timer.
func timerFire(arg any) {
	t := arg.(*Timer)
	t.ref = EventRef{}
	t.fn()
}

// Reset (re)schedules the timer to fire d from now, cancelling any pending
// expiry.
func (t *Timer) Reset(d Time) {
	t.ResetAt(t.sched.Now() + d)
}

// ResetAt (re)schedules the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.Stop()
	t.ref = t.sched.AtFunc(at, timerFire, t)
	t.deadline = at
}

// Stop cancels a pending expiry. Stopping an idle timer is a no-op.
func (t *Timer) Stop() {
	if t.ref.e != nil {
		t.sched.Cancel(t.ref)
		t.ref = EventRef{}
	}
}

// Pending reports whether an expiry is scheduled. The check is
// generation-validated, so a timer whose event was swept away by a
// scheduler Reset correctly reports idle.
func (t *Timer) Pending() bool { return t.ref.Pending() }

// Deadline returns the time of the pending expiry; it is only meaningful
// when Pending reports true.
func (t *Timer) Deadline() Time {
	if !t.ref.Pending() {
		return 0
	}
	return t.deadline
}
