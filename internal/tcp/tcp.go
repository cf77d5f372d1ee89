// Package tcp implements the window-based transport variants the paper
// compares — NewReno and Vegas, plus the Reno, Tahoe, Westwood+ and
// adaptive-pacing extensions — together with the receiver-side ACK
// policies (per-packet ACKing and the dynamic ACK thinning of Altman &
// Jiménez).
//
// The package is split along one seam: Engine carries everything the
// variants share (sequence and window accounting, RTO estimation and the
// retransmission timer, packet construction, optional rate pacing, window
// tracing), and a CongestionControl strategy supplies the per-variant
// reaction to ACKs, duplicate ACKs, RTT samples and timeouts. Strategies
// are bound to their engine once at construction, so the steady-state path
// stays free of allocations and per-packet indirection beyond a single
// interface dispatch.
//
// Like ns-2's TCP agents, everything operates at packet granularity:
// sequence numbers count 1460-byte packets, the congestion window is
// measured in packets, and the application is an infinite (FTP) backlog.
// Packet timestamps are echoed by the sink, giving the sender exact RTT
// samples (ns-2's timestamp behaviour); Karn's problem is avoided because
// retransmitted packets carry fresh timestamps.
package tcp

import (
	"math"
	"time"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
	"manetsim/internal/stats"
)

// DefaultAlpha is the Vegas α (and, through the defaulting chain, β and
// γ) threshold in packets when unset — the paper's Table 1 value. The
// spec validation layer shares it.
const DefaultAlpha = 2

// Config carries the transport parameters of Table 1 plus timer settings.
// The zero value of a field selects the default in parentheses.
type Config struct {
	Wmax  int // maximum window advertised by the receiver (64)
	Winit int // initial window in slow start and after a timeout (1)
	// MaxWindow artificially bounds the congestion window, implementing
	// the paper's "NewReno Optimal Window" variant (MaxWin=3 for the
	// 7-hop chain). 0 means no extra bound.
	MaxWindow int

	InitialRTO time.Duration // RTO before the first RTT sample (1s)
	MinRTO     time.Duration // RTO floor (200ms)
	MaxRTO     time.Duration // RTO ceiling (60s)

	// Vegas thresholds in packets; the paper fixes Alpha == Beta and
	// Gamma = Alpha (all default 2).
	Alpha int
	Beta  int
	Gamma int

	// BWFilterGain is the Westwood+ bandwidth-estimate low-pass pole in
	// (0,1): how much of the previous estimate survives each once-per-RTT
	// sample (0.9).
	BWFilterGain float64

	// CoVWeight scales how strongly the adaptive-pacing sender stretches
	// its inter-packet gap under RTT variability: the pacing interval is
	// (srtt + CoVWeight·rttvar)/cwnd (2).
	CoVWeight float64
	// MinPaceGap floors the adaptive pacing interval and seeds it before
	// the first RTT sample (1ms).
	MinPaceGap time.Duration

	// OnRetransmit, if set, observes every transport retransmission as it
	// is (re)sent. Left nil on measurement-only runs so the hot path pays
	// a single predictable branch.
	OnRetransmit func()
}

func (c Config) withDefaults() Config {
	if c.Wmax == 0 {
		c.Wmax = 64
	}
	if c.Winit == 0 {
		c.Winit = 1
	}
	if c.InitialRTO == 0 {
		c.InitialRTO = time.Second
	}
	if c.MinRTO == 0 {
		c.MinRTO = 200 * time.Millisecond
	}
	if c.MaxRTO == 0 {
		c.MaxRTO = 60 * time.Second
	}
	if c.Alpha == 0 {
		c.Alpha = DefaultAlpha
	}
	if c.Beta == 0 {
		c.Beta = c.Alpha
	}
	if c.Gamma == 0 {
		c.Gamma = c.Alpha
	}
	if c.BWFilterGain == 0 {
		c.BWFilterGain = 0.9
	}
	if c.CoVWeight == 0 {
		c.CoVWeight = 2
	}
	if c.MinPaceGap == 0 {
		c.MinPaceGap = time.Millisecond
	}
	return c
}

// Stats aggregates sender-side counters. Retransmits/delivered packets is
// the paper's Figures 7 and 12 metric.
type Stats struct {
	DataSent    uint64 // data transmissions including retransmissions
	Retransmits uint64
	Timeouts    uint64
	FastRecov   uint64 // fast-retransmit episodes
	AcksSeen    uint64
	DupAcks     uint64
}

// Output injects a packet into the network (the routing layer's Send).
type Output func(p *pkt.Packet)

// Ack summarizes one acknowledgment for a CongestionControl strategy,
// decoupling strategies from the wire packet representation (packets are
// pooled; holding one across events would read recycled memory).
type Ack struct {
	// Seq is the cumulative acknowledgment: the next sequence the
	// receiver expects.
	Seq int64
	// Echo is the send timestamp of the data packet that triggered the
	// ACK, echoed back by the sink.
	Echo sim.Time
	// NoEcho marks the timestamp unusable for RTT estimation (the ACK was
	// regenerated by a receiver timer, not triggered by a data arrival).
	NoEcho bool
	// FromRetransmit reports that the triggering data packet was a
	// retransmission, so the echoed timestamp is ambiguous (Karn's rule).
	FromRetransmit bool
}

// CongestionControl is the per-variant strategy bound into an Engine: it
// owns the window policy and loss reaction, while the engine owns the
// shared mechanics. Strategies run single-threaded inside the simulation
// event loop and drive the engine through its exported methods; the
// ordering of those calls is part of a variant's observable behaviour
// (e.g. sampling the RTT before or after AdvanceAck decides whether the
// restarted retransmission timer sees the fresh estimate).
//
// Implementations must be cheap to call: one strategy instance exists per
// flow, bound once at engine construction, and every method runs on the
// per-ACK hot path.
type CongestionControl interface {
	// Init binds the strategy to its engine and resets variant state.
	// It runs once, before any traffic.
	Init(e *Engine)
	// OnStart runs when the transfer begins, after the engine set the
	// window to Winit and before the first transmission.
	OnStart()
	// OnAck handles an ACK that advances the cumulative point
	// (a.Seq > e.AckNext()). The strategy is responsible for calling
	// e.AdvanceAck (and usually e.SampleRTT) in its variant's order.
	OnAck(a Ack)
	// OnDupAck handles a duplicate ACK while data is outstanding.
	OnDupAck(a Ack)
	// OnTimeout handles a coarse retransmission timeout with data
	// outstanding. The engine counts the timeout and, afterwards, goes
	// back N and refills the window.
	OnTimeout()
	// OnRTTSample observes every RTT measurement accepted by the
	// engine's RTO estimator (after srtt/rttvar are updated).
	OnRTTSample(rtt time.Duration)
	// Window returns the congestion window in packets (normally the
	// engine's).
	Window() float64
}

// ackFinisher is an optional strategy extension: AfterAck runs once per
// incoming ACK after OnAck/OnDupAck and before the engine refills the
// window. Vegas uses it for its once-per-RTT epoch calculation, which must
// run even for ACKs that neither advance nor duplicate.
type ackFinisher interface {
	AfterAck()
}

// CCBase is an embeddable helper for CongestionControl implementations: it
// stores the engine binding and supplies neutral defaults for the optional
// hooks, so a minimal strategy only implements the reactions it cares
// about.
type CCBase struct {
	e *Engine
}

// Init stores the engine binding.
func (b *CCBase) Init(e *Engine) { b.e = e }

// Engine returns the bound engine.
func (b *CCBase) Engine() *Engine { return b.e }

// OnStart is a no-op by default.
func (b *CCBase) OnStart() {}

// OnRTTSample is a no-op by default.
func (b *CCBase) OnRTTSample(time.Duration) {}

// Window returns the engine's congestion window.
func (b *CCBase) Window() float64 { return b.e.Window() }

// InitialSSThresh returns the classic initial slow-start threshold: 64
// packets, clamped to the receiver window.
func (b *CCBase) InitialSSThresh() float64 {
	s := 64.0
	if w := b.e.Config().Wmax; float64(w) < s {
		s = float64(w)
	}
	return s
}

// GrowAIMD applies the standard per-ACK window growth for newly
// acknowledged packets: slow start (+1 per packet) below ssthresh,
// congestion avoidance (+1/W per packet) above it.
func (b *CCBase) GrowAIMD(newly int64, ssthresh float64) {
	e := b.e
	for i := int64(0); i < newly; i++ {
		if e.Window() < ssthresh {
			e.SetWindow(e.Window() + 1)
		} else {
			e.SetWindow(e.Window() + 1/e.Window())
		}
	}
}

// Engine carries the machinery every window-based sender shares: sequence
// accounting, RTO estimation and the retransmission timer, packet
// construction, optional rate pacing, and window tracing. The congestion
// policy is delegated to the CongestionControl strategy bound at
// construction.
type Engine struct {
	sched *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the engine
	cfg   Config
	out   Output
	uids  *pkt.Pool //manetsim:resetsafe pool binding; the pool resets itself
	cc    CongestionControl

	// afterAck is the pre-bound optional ackFinisher hook (nil for most
	// strategies), so the per-ACK cost is one predictable branch.
	afterAck func()

	flow     int
	src, dst pkt.NodeID

	nextSeq int64 // next sequence to transmit
	maxSeq  int64 // one past the highest sequence ever transmitted
	ackNext int64 // next sequence expected by the receiver (cum. ACK)
	cwnd    float64

	// sentAt records the latest transmission time per in-flight sequence
	// (Vegas' fine-grained checks and loss bookkeeping).
	sentAt map[int64]sim.Time

	srtt, rttvar time.Duration
	hasRTT       bool
	rto          time.Duration
	backoff      int
	rtxTimer     *sim.Timer

	// paceGap, when non-nil, switches transmission from ACK-clocked
	// bursts to rate pacing: packets leave one per interval as long as
	// the window has room.
	paceGap   func() time.Duration
	paceTimer *sim.Timer

	// halted marks a sender whose host node crashed (fault injection):
	// timers are stopped and every entry point is inert until Resume.
	halted bool

	stats   Stats
	winHist stats.TimeWeighted
}

// NewEngine builds the sender engine for one flow and binds the
// congestion-control strategy into it. It allocates the in-flight map and
// both timers and ends with Reset; the steady-state path allocates nothing.
func NewEngine(sched *sim.Scheduler, cfg Config, flow int, src, dst pkt.NodeID, uids *pkt.Pool, out Output, cc CongestionControl) *Engine {
	e := &Engine{sched: sched, uids: uids, sentAt: make(map[int64]sim.Time)}
	e.rtxTimer = sim.NewTimer(sched, e.onRTO)
	e.paceTimer = sim.NewTimer(sched, e.pump)
	e.Reset(cfg, flow, src, dst, out, cc)
	return e
}

// Reset sets the engine up for a run over its scheduler, keeping the
// allocated map and timers. NewEngine ends with it, so this is the one
// place a run's initial sender state is written. The flow identity and
// output are taken fresh — a reused engine may serve a different flow
// (generator scenarios draw flows per seed) — and a fresh
// congestion-control strategy is bound in (strategies carry per-run
// state). On reuse, call after the scheduler was reset, which swept the
// retransmission and pacing timers.
func (e *Engine) Reset(cfg Config, flow int, src, dst pkt.NodeID, out Output, cc CongestionControl) {
	if out == nil {
		panic("tcp: nil output")
	}
	if cc == nil {
		panic("tcp: nil congestion control")
	}
	e.cfg = cfg.withDefaults()
	e.out = out
	e.cc = cc
	e.flow = flow
	e.src = src
	e.dst = dst
	e.nextSeq = 0
	e.maxSeq = 0
	e.ackNext = 0
	e.cwnd = float64(e.cfg.Winit)
	clear(e.sentAt)
	e.rtxTimer.Stop()
	e.paceGap = nil
	e.paceTimer.Stop()
	e.halted = false
	e.stats = Stats{}
	e.winHist = stats.TimeWeighted{}
	e.coldStart()
}

// coldStart forgets the RTT estimate and binds the strategy afresh: the
// part of Reset that Resume repeats after a crash.
func (e *Engine) coldStart() {
	e.srtt, e.rttvar = 0, 0
	e.hasRTT = false
	e.rto = e.cfg.InitialRTO
	e.backoff = 1
	e.afterAck = nil
	e.cc.Init(e)
	if f, ok := e.cc.(ackFinisher); ok {
		e.afterAck = f.AfterAck
	}
}

// Config returns the engine's defaulted configuration.
func (e *Engine) Config() Config { return e.cfg }

// Now returns the current simulation time.
func (e *Engine) Now() sim.Time { return e.sched.Now() }

// AckNext returns the next sequence the receiver expects (the cumulative
// acknowledgment point, i.e. the oldest unacked sequence).
func (e *Engine) AckNext() int64 { return e.ackNext }

// NextSeq returns the next sequence the engine will transmit.
func (e *Engine) NextSeq() int64 { return e.nextSeq }

// MaxSeq returns one past the highest sequence ever transmitted.
func (e *Engine) MaxSeq() int64 { return e.maxSeq }

// InFlight returns the number of outstanding packets.
func (e *Engine) InFlight() int64 { return e.nextSeq - e.ackNext }

// SRTT returns the smoothed RTT estimate (0 before the first sample).
func (e *Engine) SRTT() time.Duration {
	if !e.hasRTT {
		return 0
	}
	return e.srtt
}

// RTTVar returns the RTT variation estimate (0 before the first sample).
func (e *Engine) RTTVar() time.Duration {
	if !e.hasRTT {
		return 0
	}
	return e.rttvar
}

// SentAt returns when seq was last transmitted, if it is in flight.
func (e *Engine) SentAt(seq int64) (sim.Time, bool) {
	t, ok := e.sentAt[seq]
	return t, ok
}

// EnablePacing switches the engine from ACK-clocked burst transmission to
// rate pacing: as long as the window has room, one packet leaves per gap()
// interval. Strategies call this from Init.
func (e *Engine) EnablePacing(gap func() time.Duration) {
	if gap == nil {
		panic("tcp: nil pacing gap")
	}
	e.paceGap = gap
}

// Start begins the transfer. On a halted engine (host crashed before the
// flow's start time) it is a no-op; Resume starts the transfer instead.
func (e *Engine) Start() {
	if e.halted {
		return
	}
	e.SetWindow(float64(e.cfg.Winit))
	e.cc.OnStart()
	e.sendUpTo()
}

// Halt suspends a sender whose host node crashed: the retransmission and
// pacing timers stop and every entry point goes inert until Resume.
// Connection state — sequence accounting, stats, the window trace — is
// preserved, so the run's cumulative batch deltas stay consistent across
// the outage.
func (e *Engine) Halt() {
	e.halted = true
	e.rtxTimer.Stop()
	e.paceTimer.Stop()
}

// Resume restarts a halted sender after its host came back up. The
// congestion state restarts cold — the strategy re-initializes as if the
// connection just opened (slow start from Winit, initial RTO, no RTT
// history) — while the connection's sequence state survives, so
// transmission resumes from the first unacknowledged packet.
func (e *Engine) Resume() {
	if !e.halted {
		return
	}
	e.halted = false
	e.coldStart()
	e.SetWindow(float64(e.cfg.Winit))
	e.cc.OnStart()
	e.GoBackN()
	e.sendUpTo()
}

// HandleAck processes a cumulative acknowledgment: the engine classifies
// it (advance, duplicate, or stale) and delegates the reaction to the
// strategy, then refills the window.
//
//manetsim:hotpath
func (e *Engine) HandleAck(p *pkt.Packet) {
	if p.TCP == nil || e.halted {
		return
	}
	e.stats.AcksSeen++
	a := Ack{
		Seq:            p.TCP.Ack,
		Echo:           p.TCP.SentAt,
		NoEcho:         p.TCP.NoEcho,
		FromRetransmit: p.TCP.Retransmit,
	}
	if a.Seq > e.ackNext {
		e.cc.OnAck(a)
	} else if e.ackNext < e.nextSeq {
		// Pure duplicate with data outstanding.
		e.stats.DupAcks++
		e.cc.OnDupAck(a)
	}
	if e.afterAck != nil {
		e.afterAck()
	}
	e.sendUpTo()
}

// effectiveWindow applies the receiver limit and the optional MaxWindow cap.
func (e *Engine) effectiveWindow() int {
	w := int(e.cwnd)
	if w < 1 {
		w = 1
	}
	if w > e.cfg.Wmax {
		w = e.cfg.Wmax
	}
	if e.cfg.MaxWindow > 0 && w > e.cfg.MaxWindow {
		w = e.cfg.MaxWindow
	}
	return w
}

// SetWindow updates the congestion window (clamped to [1, Wmax]) and the
// time-weighted trace.
func (e *Engine) SetWindow(w float64) {
	if w < 1 {
		w = 1
	}
	if w > float64(e.cfg.Wmax) {
		w = float64(e.cfg.Wmax)
	}
	e.cwnd = w
	e.winHist.Set(e.sched.Now(), math.Min(w, float64(e.effectiveWindow())))
}

// sendUpTo transmits packets while the window has room. After a timeout
// pulled nextSeq back (go-back-N), this naturally resends the lost window.
// Under pacing it instead primes the pacing pump.
func (e *Engine) sendUpTo() {
	if e.paceGap != nil {
		e.pump()
		return
	}
	if e.nextSeq < e.ackNext {
		// The receiver has buffered past our send point (holes were filled
		// by buffered out-of-order data): skip what is already covered.
		e.nextSeq = e.ackNext
	}
	win := int64(e.effectiveWindow())
	for e.nextSeq < e.ackNext+win {
		e.transmit(e.nextSeq)
		e.nextSeq++
	}
}

// pump is the paced transmission loop: it sends one packet if the window
// has room and no gap is pending, then re-arms the pacing timer. When the
// window closes the pump idles; the next window-opening ACK restarts it.
func (e *Engine) pump() {
	if e.nextSeq < e.ackNext {
		e.nextSeq = e.ackNext
	}
	if e.paceTimer.Pending() {
		return
	}
	win := int64(e.effectiveWindow())
	if e.nextSeq >= e.ackNext+win {
		return
	}
	e.transmit(e.nextSeq)
	e.nextSeq++
	e.paceTimer.Reset(e.paceGap())
}

// transmit puts one data packet on the network. A packet below the highest
// sequence ever sent is a retransmission.
//
//manetsim:hotpath
func (e *Engine) transmit(seq int64) {
	now := e.sched.Now()
	isRtx := seq < e.maxSeq
	if seq+1 > e.maxSeq {
		e.maxSeq = seq + 1
	}
	p := e.uids.NewTCP()
	p.Kind = pkt.KindTCPData
	p.Size = pkt.TCPDataSize
	p.Src = e.src
	p.Dst = e.dst
	p.TTL = 64
	p.TCP.Flow = e.flow
	p.TCP.Seq = seq
	p.TCP.SentAt = now
	p.TCP.Retransmit = isRtx
	e.sentAt[seq] = now
	e.stats.DataSent++
	if isRtx {
		e.stats.Retransmits++
		if e.cfg.OnRetransmit != nil {
			e.cfg.OnRetransmit()
		}
	}
	if !e.rtxTimer.Pending() {
		e.rtxTimer.Reset(e.currentRTO())
	}
	e.out(p)
}

// Retransmit resends one outstanding sequence immediately (fast
// retransmit). Strategies use it for holes below NextSeq.
func (e *Engine) Retransmit(seq int64) { e.transmit(seq) }

// currentRTO returns the backed-off retransmission timeout.
func (e *Engine) currentRTO() time.Duration {
	d := e.rto * time.Duration(e.backoff)
	if d > e.cfg.MaxRTO {
		d = e.cfg.MaxRTO
	}
	return d
}

// RestartRTOTimer re-arms the retransmission timer at the current
// backed-off RTO.
func (e *Engine) RestartRTOTimer() { e.rtxTimer.Reset(e.currentRTO()) }

// BackoffRTO doubles the RTO backoff multiplier, capped at 64 (as in BSD
// TCP) so long outages cannot overflow the timer arithmetic.
func (e *Engine) BackoffRTO() {
	if e.backoff < 64 {
		e.backoff *= 2
	}
}

// SampleRTT folds a measurement into srtt/rttvar (RFC 6298), clears the
// timer backoff, and forwards the accepted sample to the strategy.
// Non-positive measurements are discarded.
func (e *Engine) SampleRTT(rtt time.Duration) {
	if rtt <= 0 {
		return
	}
	if !e.hasRTT {
		e.srtt = rtt
		e.rttvar = rtt / 2
		e.hasRTT = true
	} else {
		diff := e.srtt - rtt
		if diff < 0 {
			diff = -diff
		}
		e.rttvar = (3*e.rttvar + diff) / 4
		e.srtt = (7*e.srtt + rtt) / 8
	}
	e.rto = e.srtt + 4*e.rttvar
	if e.rto < e.cfg.MinRTO {
		e.rto = e.cfg.MinRTO
	}
	if e.rto > e.cfg.MaxRTO {
		e.rto = e.cfg.MaxRTO
	}
	e.backoff = 1
	e.cc.OnRTTSample(rtt)
}

// AdvanceAck processes the cumulative part of an ACK: trims bookkeeping
// and restarts the retransmission timer. It returns how many new packets
// the ACK covers.
func (e *Engine) AdvanceAck(ack int64) int64 {
	if ack <= e.ackNext {
		return 0
	}
	n := ack - e.ackNext
	for s := e.ackNext; s < ack; s++ {
		delete(e.sentAt, s)
	}
	e.ackNext = ack
	if e.ackNext < e.nextSeq {
		e.rtxTimer.Reset(e.currentRTO())
	} else {
		e.rtxTimer.Stop()
	}
	return n
}

// FineRTO is the fine-grained timeout Vegas checks against (srtt+4*rttvar
// without the coarse floor).
func (e *Engine) FineRTO() time.Duration {
	if !e.hasRTT {
		return e.cfg.InitialRTO
	}
	return e.srtt + 4*e.rttvar
}

// CountFastRecovery bumps the fast-retransmit episode counter.
func (e *Engine) CountFastRecovery() { e.stats.FastRecov++ }

// GoBackN pulls the transmission point back to the first unacked
// sequence, so the next window refill resends the outstanding data.
func (e *Engine) GoBackN() {
	if e.nextSeq > e.ackNext {
		e.nextSeq = e.ackNext
	}
}

// onRTO fires on a coarse retransmission timeout: the strategy reacts
// (shrink the window, back off, re-arm the timer), then the engine goes
// back N — resuming from the first unacked packet, as BSD/ns-2 TCP does —
// and refills the window.
func (e *Engine) onRTO() {
	if e.ackNext >= e.nextSeq {
		return // nothing outstanding
	}
	e.stats.Timeouts++
	e.cc.OnTimeout()
	e.GoBackN()
	e.sendUpTo()
}

// Window returns the current congestion window (packets).
func (e *Engine) Window() float64 { return e.cwnd }

// WindowTrace exposes the time-weighted window history.
func (e *Engine) WindowTrace() *stats.TimeWeighted { return &e.winHist }

// Stats snapshots the counters.
func (e *Engine) Stats() Stats { return e.stats }
