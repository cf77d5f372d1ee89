// Package resetcomplete exercises the resetcomplete analyzer: every field of
// a struct with a Reset method must be re-initialized in Reset (directly,
// via a helper, via a method on the field, or by whole-receiver overwrite)
// or carry //manetsim:resetsafe.
package resetcomplete

// Arena is the failing case: seed was added after Reset was written.
type Arena struct {
	buf  []byte
	n    int
	seed uint64 // want `field seed of Arena is not reset`
	free *Arena //manetsim:resetsafe freelist link survives reuse by design
}

func (a *Arena) Reset() {
	a.buf = a.buf[:0]
	a.n = 0
}

// Wipe resets by whole-receiver overwrite, which handles every field at once.
type Wipe struct {
	x, y int
	m    map[int]int
}

func (w *Wipe) Reset() {
	*w = Wipe{m: w.m}
	clear(w.m)
}

// Helper reaches field b through a same-receiver helper method.
type Helper struct {
	a int
	b int
}

func (h *Helper) Reset() {
	h.a = 0
	h.zeroB()
}

func (h *Helper) zeroB() { h.b = 0 }

// Sub handles inner by calling a method on the field itself.
type Sub struct {
	inner Helper
	count int
}

func (s *Sub) Reset() {
	s.inner.Reset()
	s.count = 0
}

// Embeds forgets its embedded struct.
type Embeds struct {
	Helper // want `embedded field Helper of Embeds is not reset`
	used   bool
}

func (e *Embeds) Reset() { e.used = false }

// NoReset has no Reset method and therefore no obligations.
type NoReset struct {
	anything int
}

// NewArena spells the initial state out in a literal instead of ending
// with Reset.
func NewArena(n int) *Arena { // want `constructor NewArena does not end with \(\*Arena\)\.Reset`
	return &Arena{buf: make([]byte, 0, n)}
}

// NewHelper allocates and ends with Reset; an early nil return and a
// constructor that delegates to a checked one are fine.
func NewHelper(ok bool) (*Helper, bool) {
	if !ok {
		return nil, false
	}
	h := &Helper{}
	h.Reset()
	return h, true
}

func NewDefaultHelper() (*Helper, bool) { return NewHelper(true) }

// NewEmbeds calls Reset, but not last: configure may overwrite what it wrote.
func NewEmbeds(configure func(*Embeds)) *Embeds { // want `constructor NewEmbeds does not end with`
	e := &Embeds{}
	e.Reset()
	configure(e)
	return e
}

// NewWipe is exempt: its Reset means something other than initialise.
//
//manetsim:allow resetcomplete Reset here re-arms, it does not initialise
func NewWipe() *Wipe { return &Wipe{} }

// NewNoReset builds a type without Reset, so there is nothing to call.
func NewNoReset() *NoReset { return &NoReset{} }
