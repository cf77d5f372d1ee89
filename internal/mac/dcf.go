package mac

import (
	"fmt"
	"time"

	"manetsim/internal/phy"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// phase tracks where the MAC is in the DCF exchange for the packet in
// service.
type phase int

const (
	phaseIdle     phase = iota // nothing in service
	phaseContend               // contending (IFS + backoff) for cur
	phaseTxRTS                 // RTS on the air
	phaseWaitCTS               // CTS response timer running
	phaseSIFSData              // SIFS gap before sending DATA
	phaseTxData                // DATA on the air
	phaseWaitAck               // ACK response timer running
	phaseTxBcast               // broadcast data on the air
)

// Config parameterizes a DCF instance.
type Config struct {
	DataRate phy.Rate
	QueueCap int // 0 means DefaultQueueCap

	// RTSThreshold enables 802.11 basic access for short frames: a
	// unicast packet whose network-layer size is at most RTSThreshold
	// bytes skips the RTS/CTS handshake and goes straight from the
	// contention defer to DATA (still ACK-protected; failed attempts
	// count against the long retry limit and re-contend). 0 keeps
	// today's behavior — RTS/CTS on every unicast frame. Set it above
	// the largest packet size to disable RTS/CTS entirely (the
	// dot11RTSThreshold=off configuration).
	RTSThreshold int
}

// Callbacks connect the MAC to the layer above.
type Callbacks struct {
	// Deliver hands a received network packet up (from = previous hop).
	Deliver func(p *pkt.Packet, from pkt.NodeID)
	// LinkFailure reports a unicast packet dropped after retry
	// exhaustion; the routing layer reacts with a (false) route failure.
	LinkFailure func(p *pkt.Packet, nextHop pkt.NodeID)
}

// txItem is one queued network packet with its link-layer next hop.
type txItem struct {
	p       *pkt.Packet
	nextHop pkt.NodeID
}

// DCF is the per-node 802.11 MAC entity.
type DCF struct {
	sched        *sim.Scheduler //manetsim:resetsafe scheduler binding lives as long as the MAC
	radio        *phy.Radio
	timing       Timing
	cb           Callbacks //manetsim:resetsafe wiring to the owning node; rebound only when the node is rebuilt
	qcap         int
	rtsThreshold int

	queue []txItem
	// cur points at curSlot while a packet is in service (a fixed slot, so
	// taking a packet into service never allocates).
	cur     *txItem
	curSlot txItem

	ph           phase
	cw           int
	backoffSlots int
	counting     bool
	countStart   sim.Time
	curIFS       time.Duration
	useEIFS      bool

	deferTimer *sim.Timer
	ctsTimer   *sim.Timer
	ackTimer   *sim.Timer
	navTimer   *sim.Timer
	navUntil   sim.Time

	ssrc, slrc int

	respInFlight bool
	respPending  bool

	// down marks a crashed node (fault injection): the MAC neither serves
	// its queue nor responds until Activate. The PHY suppresses handler
	// indications for down nodes, so the flag only guards entry points
	// reachable from this node's own layers and pre-crash scheduled
	// events.
	down bool

	// receiver-side duplicate suppression (ACK lost => MAC retransmits)
	seen     map[uint64]bool
	seenRing []uint64
	seenIdx  int

	// freeFrame recycles this node's transmitted frames once the channel
	// releases them, so steady-state traffic builds frames without
	// allocating. frames lists every frame the MAC ever made, so Reset can
	// reclaim the ones still on the air when the previous run stopped.
	freeFrame *Frame   //manetsim:resetsafe Reset relinks every frame onto it
	frames    []*Frame //manetsim:resetsafe the MAC owns its frames for life
	// releaseFn is the frameReleased method value, bound once in New: the
	// radio forgets its hook on reset, and re-evaluating the method value
	// to reinstall it would allocate a closure per node and run.
	releaseFn func(frame any) //manetsim:resetsafe bound to this MAC for life

	Counters Counters
}

var _ phy.Handler = (*DCF)(nil)

// New creates a DCF bound to a radio: its timers and duplicate ring, then
// Reset, which installs the MAC as the radio's PHY handler.
func New(sched *sim.Scheduler, radio *phy.Radio, cfg Config, cb Callbacks) *DCF {
	if cb.Deliver == nil || cb.LinkFailure == nil {
		panic("mac: both callbacks are required")
	}
	d := &DCF{
		sched:    sched,
		radio:    radio,
		cb:       cb,
		seen:     make(map[uint64]bool),
		seenRing: make([]uint64, 128),
	}
	d.deferTimer = sim.NewTimer(sched, d.onDeferDone)
	d.ctsTimer = sim.NewTimer(sched, d.onCTSTimeout)
	d.ackTimer = sim.NewTimer(sched, d.onAckTimeout)
	d.navTimer = sim.NewTimer(sched, d.kick)
	d.releaseFn = d.frameReleased
	d.Reset(cfg)
	return d
}

// Reset sets the MAC up for a run over its radio and (re)installs itself
// as the radio's handler (a radio reset clears it); New ends with it. On
// reuse, call after the scheduler and the channel were reset: the MAC's
// timers and pending response events are already swept, and queued or
// in-flight packets from the previous run belong to a pool that reclaimed
// them, so the references are simply forgotten, never released. Every
// frame the MAC ever made goes back on the freelist, re-zeroed — one still
// on the air when the previous run stopped included — so a frame held
// across Reset is recycled, not orphaned.
func (d *DCF) Reset(cfg Config) {
	d.timing = NewTiming(cfg.DataRate)
	d.qcap = cfg.QueueCap
	if d.qcap == 0 {
		d.qcap = DefaultQueueCap
	}
	d.rtsThreshold = cfg.RTSThreshold
	for i := range d.queue {
		d.queue[i] = txItem{}
	}
	d.queue = d.queue[:0]
	d.cur = nil
	d.curSlot = txItem{}
	d.idle()
	d.down = false
	clear(d.seen)
	for i := range d.seenRing {
		d.seenRing[i] = 0
	}
	d.seenIdx = 0
	d.Counters = Counters{}
	d.freeFrame = nil
	for _, f := range d.frames {
		d.putFrame(f)
	}
	d.radio.SetHandler(d)
	d.radio.OnFrameReleased = d.releaseFn
}

// Deactivate crashes the MAC mid-run: every timer stops, the queue and
// the packet in service are released, and the contention state machine
// returns to idle. Counters are preserved — a crash must not disturb the
// run's cumulative batch deltas. A frame already on the air completes
// (the PHY drops its completion indication); frames released by the
// channel keep recycling into the pool while the node is down.
func (d *DCF) Deactivate() {
	d.down = true
	for i := range d.queue {
		d.queue[i].p.Release()
		d.queue[i] = txItem{}
	}
	d.queue = d.queue[:0]
	if d.cur != nil {
		d.cur.p.Release()
		d.cur = nil
		d.curSlot = txItem{}
	}
	d.idle()
}

// idle stops every timer and returns the contention state machine to its
// initial state: the part of Reset that a crash repeats.
func (d *DCF) idle() {
	d.deferTimer.Stop()
	d.ctsTimer.Stop()
	d.ackTimer.Stop()
	d.navTimer.Stop()
	d.ph = phaseIdle
	d.cw = CWMin
	d.backoffSlots = 0
	d.counting = false
	d.countStart = 0
	d.curIFS = 0
	d.useEIFS = false
	d.navUntil = 0
	d.ssrc, d.slrc = 0, 0
	d.respInFlight = false
	d.respPending = false
}

// Activate restarts a crashed MAC with fresh contention state (stale NAV
// reservations from before the crash are discarded; counters carry over)
// and resumes service of whatever the layers above enqueue next.
func (d *DCF) Activate() {
	d.down = false
	d.cw = CWMin
	d.useEIFS = false
	d.kick()
}

// newFrame takes a frame from the transmit pool (or allocates one). The
// caller must set every field it needs; recycled frames come back zeroed.
func (d *DCF) newFrame() *Frame {
	f := d.freeFrame
	if f != nil {
		d.freeFrame = f.next
		f.next = nil
		return f
	}
	f = &Frame{}
	d.frames = append(d.frames, f)
	return f
}

// frameReleased is the radio's frame-release hook: the channel holds no
// more references to the frame, so it can carry the next transmission.
func (d *DCF) frameReleased(frame any) {
	f, ok := frame.(*Frame)
	if !ok {
		return
	}
	d.recycleFrame(f)
}

func (d *DCF) recycleFrame(f *Frame) {
	if f.Payload != nil {
		// The air reference taken when the frame was built.
		f.Payload.Release()
	}
	d.putFrame(f)
}

// putFrame re-zeroes a frame onto the freelist.
func (d *DCF) putFrame(f *Frame) {
	f.Type = 0
	f.From, f.To = 0, 0
	f.Duration = 0
	f.Payload = nil
	f.respMAC, f.respAir, f.respCounter = nil, 0, nil
	f.next = d.freeFrame
	d.freeFrame = f
}

// ID returns the node id of this MAC's radio.
func (d *DCF) ID() pkt.NodeID { return d.radio.ID() }

// QueueLen returns the number of packets waiting (excluding the one in
// service).
func (d *DCF) QueueLen() int { return len(d.queue) }

// Enqueue submits a network packet for transmission to nextHop (or
// pkt.Broadcast). It reports false when the interface queue is full and
// the packet was dropped.
//
//manetsim:hotpath
func (d *DCF) Enqueue(p *pkt.Packet, nextHop pkt.NodeID) bool {
	if d.down {
		// Crashed interface: consume and discard without counting — the
		// node is off, not congested.
		p.Release()
		return false
	}
	if nextHop == pkt.Broadcast {
		d.Counters.BcastSubmitted++
	} else {
		d.Counters.DataSubmitted++
	}
	if len(d.queue) >= d.qcap {
		d.Counters.QueueDrops++
		p.Release() // ownership came with the call; a full queue consumes it
		return false
	}
	d.queue = append(d.queue, txItem{p: p, nextHop: nextHop})
	d.kick()
	return true
}

// FilterQueue removes the queued packets bound for nextHop and appends them
// to removed, a caller-owned scratch (head-of-line packet in service is not
// affected). Routing uses this to pull packets for an invalidated next hop
// out of the queue.
func (d *DCF) FilterQueue(nextHop pkt.NodeID, removed []*pkt.Packet) []*pkt.Packet {
	kept := d.queue[:0]
	for _, item := range d.queue {
		if item.nextHop != nextHop {
			kept = append(kept, item)
		} else {
			removed = append(removed, item.p)
		}
	}
	for i := len(kept); i < len(d.queue); i++ {
		d.queue[i] = txItem{}
	}
	d.queue = kept
	return removed
}

// mediumBusy reports physical or virtual (NAV) carrier.
func (d *DCF) mediumBusy() bool {
	return !d.radio.Idle() || d.sched.Now() < d.navUntil
}

// kick advances the contention state machine. It is safe to call at any
// time; it does nothing unless a countdown can start or resume. With
// nothing queued or in service it returns first: that is the usual case at
// a receiver's busy/idle edges, and every check below would return too.
func (d *DCF) kick() {
	if d.cur == nil && len(d.queue) == 0 {
		return
	}
	if d.down || d.respInFlight || d.radio.Transmitting() {
		return
	}
	if d.ph != phaseIdle && d.ph != phaseContend {
		return
	}
	if d.cur == nil {
		d.curSlot = d.queue[0]
		copy(d.queue, d.queue[1:])
		d.queue[len(d.queue)-1] = txItem{}
		d.queue = d.queue[:len(d.queue)-1]
		d.cur = &d.curSlot
		d.ph = phaseContend
		d.ssrc, d.slrc = 0, 0
		d.backoffSlots = d.drawBackoff()
	}
	if d.counting {
		return
	}
	if d.mediumBusy() {
		if now := d.sched.Now(); now < d.navUntil && d.radio.Idle() && !d.navTimer.Pending() {
			d.navTimer.ResetAt(d.navUntil)
		}
		return
	}
	d.curIFS = DIFS
	if d.useEIFS {
		d.curIFS = d.timing.EIFS
	}
	d.counting = true
	d.countStart = d.sched.Now()
	d.deferTimer.Reset(d.curIFS + time.Duration(d.backoffSlots)*SlotTime)
}

// pause suspends a running backoff countdown, banking fully elapsed slots.
func (d *DCF) pause() {
	if !d.counting {
		return
	}
	d.counting = false
	d.deferTimer.Stop()
	elapsed := d.sched.Now() - d.countStart
	if elapsed > d.curIFS {
		consumed := int((elapsed - d.curIFS) / SlotTime)
		d.backoffSlots -= consumed
		if d.backoffSlots < 0 {
			d.backoffSlots = 0
		}
	}
}

// drawBackoff samples a uniform backoff in [0, cw] slots.
func (d *DCF) drawBackoff() int {
	return d.sched.Rand().Intn(d.cw + 1)
}

// growCW doubles the contention window after a failed attempt.
func (d *DCF) growCW() {
	d.cw = 2*(d.cw+1) - 1
	if d.cw > CWMax {
		d.cw = CWMax
	}
}

// onDeferDone fires when IFS+backoff completed with an idle medium: the
// frame in service goes on the air.
func (d *DCF) onDeferDone() {
	d.counting = false
	d.useEIFS = false
	d.backoffSlots = 0
	if d.cur == nil {
		d.ph = phaseIdle
		return
	}
	if d.cur.nextHop == pkt.Broadcast {
		d.ph = phaseTxBcast
		d.Counters.BcastSent++
		f := d.newFrame()
		f.Type = FrameData
		f.From = d.ID()
		f.To = pkt.Broadcast
		f.Payload = d.cur.p
		f.Payload.Retain() // air reference, dropped when the frame recycles
		d.radio.Transmit(f, d.timing.DataAir(d.cur.p.Size))
		return
	}
	if d.rtsThreshold > 0 && d.cur.p.Size <= d.rtsThreshold {
		// Basic access: the frame is short enough that losing it costs
		// less than the handshake. Straight to DATA; the ACK (and the
		// long retry limit) still protect it.
		d.transmitData()
		return
	}
	d.ph = phaseTxRTS
	d.Counters.RTSSent++
	dataAir := d.timing.DataAir(d.cur.p.Size)
	f := d.newFrame()
	f.Type = FrameRTS
	f.From = d.ID()
	f.To = d.cur.nextHop
	f.Duration = 3*SIFS + d.timing.CTSAir + dataAir + d.timing.AckAir
	d.radio.Transmit(f, d.timing.RTSAir)
}

// TxDone implements phy.Handler.
//
//manetsim:hotpath
func (d *DCF) TxDone() {
	if d.respInFlight {
		d.respInFlight = false
		d.kick()
		return
	}
	switch d.ph {
	case phaseTxRTS:
		d.ph = phaseWaitCTS
		d.ctsTimer.Reset(SIFS + d.timing.CTSAir + 2*maxPropDelay + SlotTime)
	case phaseTxData:
		d.ph = phaseWaitAck
		d.ackTimer.Reset(SIFS + d.timing.AckAir + 2*maxPropDelay + SlotTime)
	case phaseTxBcast:
		d.finishCur()
	default:
		// Response frames handled above; nothing else transmits.
	}
}

// finishCur completes service of the current packet (success or broadcast)
// and moves on, dropping the MAC's ownership reference (receivers that got
// the frame hold their own).
func (d *DCF) finishCur() {
	if d.cur != nil {
		d.cur.p.Release()
	}
	d.cur = nil
	d.curSlot = txItem{}
	d.ph = phaseIdle
	d.cw = CWMin
	d.ssrc, d.slrc = 0, 0
	d.kick()
}

// dropCur gives up on the current packet after retry exhaustion.
func (d *DCF) dropCur() {
	// Copy out of the service slot first: the LinkFailure callback may
	// re-enter Enqueue/kick, which reuses the slot.
	p, nextHop := d.cur.p, d.cur.nextHop
	d.cur = nil
	d.curSlot = txItem{}
	d.ph = phaseIdle
	d.cw = CWMin
	d.ssrc, d.slrc = 0, 0
	d.Counters.RetryDrops++
	d.cb.LinkFailure(p, nextHop)
	d.kick()
}

func (d *DCF) onCTSTimeout() {
	if d.ph != phaseWaitCTS {
		return
	}
	d.ssrc++
	d.Counters.Retries++
	if d.ssrc >= ShortRetryLimit {
		d.dropCur()
		return
	}
	d.growCW()
	d.backoffSlots = d.drawBackoff()
	d.ph = phaseContend
	d.kick()
}

func (d *DCF) onAckTimeout() {
	if d.ph != phaseWaitAck {
		return
	}
	d.dataAttemptFailed()
}

// dataAttemptFailed handles a failed DATA attempt (missing ACK or a
// blocked transmission slot): count against the long retry limit and
// re-contend from the RTS stage.
func (d *DCF) dataAttemptFailed() {
	d.slrc++
	d.Counters.Retries++
	if d.slrc >= LongRetryLimit {
		d.dropCur()
		return
	}
	d.growCW()
	d.backoffSlots = d.drawBackoff()
	d.ph = phaseContend
	d.kick()
}

// ChannelBusy implements phy.Handler: energy appeared, pause contention.
func (d *DCF) ChannelBusy() { d.pause() }

// ChannelIdle implements phy.Handler: medium free again, resume.
func (d *DCF) ChannelIdle() { d.kick() }

// RxCorrupted implements phy.Handler: next deferral uses EIFS.
func (d *DCF) RxCorrupted() { d.useEIFS = true }

// RxFrame implements phy.Handler and dispatches by frame type.
func (d *DCF) RxFrame(frame any, from pkt.NodeID) {
	f, ok := frame.(*Frame)
	if !ok {
		panic(fmt.Sprintf("mac: foreign frame type %T", frame))
	}
	d.useEIFS = false
	me := d.ID()
	if f.To != me && f.To != pkt.Broadcast {
		// Overheard frame: virtual carrier sense.
		d.updateNAV(f.Duration)
		return
	}
	switch f.Type {
	case FrameRTS:
		d.onRTS(f, from)
	case FrameCTS:
		d.onCTS(f, from)
	case FrameData:
		d.onData(f, from)
	case FrameAck:
		d.onAck(f, from)
	}
}

func (d *DCF) updateNAV(dur time.Duration) {
	if dur <= 0 {
		return
	}
	until := d.sched.Now() + dur
	if until > d.navUntil {
		d.navUntil = until
		d.pause()
	}
}

// onRTS answers with a CTS after SIFS unless virtual carrier sense forbids
// it (a neighbor's reservation is active).
func (d *DCF) onRTS(f *Frame, from pkt.NodeID) {
	if d.sched.Now() < d.navUntil || d.respPending {
		return
	}
	cts := d.newFrame()
	cts.Type = FrameCTS
	cts.From = d.ID()
	cts.To = from
	cts.Duration = f.Duration - SIFS - d.timing.CTSAir
	d.scheduleResponse(cts, d.timing.CTSAir, &d.Counters.CTSSent)
}

// onCTS resumes the exchange for the packet in service.
func (d *DCF) onCTS(f *Frame, from pkt.NodeID) {
	if d.ph != phaseWaitCTS || d.cur == nil || from != d.cur.nextHop {
		return
	}
	d.ctsTimer.Stop()
	d.ssrc = 0
	d.ph = phaseSIFSData
	d.sched.AfterFunc(SIFS, dcfSendData, d)
}

// dcfSendData is the SIFS-gap trampoline between CTS reception and the
// data transmission (a package function so scheduling does not allocate).
func dcfSendData(a any) { a.(*DCF).sendData() }

func (d *DCF) sendData() {
	if d.ph != phaseSIFSData || d.cur == nil {
		return
	}
	if d.radio.Transmitting() {
		// A scheduled response got in first; treat like a failed attempt.
		d.dataAttemptFailed()
		return
	}
	d.transmitData()
}

// transmitData puts the DATA frame of the packet in service on the air —
// the shared tail of the RTS/CTS exchange and the basic-access path.
func (d *DCF) transmitData() {
	d.ph = phaseTxData
	d.Counters.DataSent++
	f := d.newFrame()
	f.Type = FrameData
	f.From = d.ID()
	f.To = d.cur.nextHop
	f.Duration = SIFS + d.timing.AckAir
	f.Payload = d.cur.p
	f.Payload.Retain() // air reference, dropped when the frame recycles
	d.radio.Transmit(f, d.timing.DataAir(d.cur.p.Size))
}

// onData delivers the payload and always ACKs after SIFS (data receivers
// respond regardless of NAV).
func (d *DCF) onData(f *Frame, from pkt.NodeID) {
	if f.To == pkt.Broadcast {
		f.Payload.Retain() // delivery hands the upper layer its own reference
		d.cb.Deliver(f.Payload, from)
		return
	}
	ack := d.newFrame()
	ack.Type = FrameAck
	ack.From = d.ID()
	ack.To = from
	d.scheduleResponse(ack, d.timing.AckAir, &d.Counters.AckSent)
	uid := f.Payload.UID
	if d.seen[uid] {
		d.Counters.DupsSuppressed++
		return
	}
	d.seen[uid] = true
	if old := d.seenRing[d.seenIdx]; old != 0 {
		delete(d.seen, old)
	}
	d.seenRing[d.seenIdx] = uid
	d.seenIdx = (d.seenIdx + 1) % len(d.seenRing)
	d.Counters.Delivered++
	f.Payload.Retain() // delivery hands the upper layer its own reference
	d.cb.Deliver(f.Payload, from)
}

// onAck completes the exchange for the packet in service.
func (d *DCF) onAck(_ *Frame, from pkt.NodeID) {
	if d.ph != phaseWaitAck || d.cur == nil || from != d.cur.nextHop {
		return
	}
	d.ackTimer.Stop()
	d.finishCur()
}

// scheduleResponse emits a control response (CTS or ACK) exactly SIFS
// after the eliciting frame, without carrier sensing, as the standard
// requires. If the radio happens to be mid-transmission at fire time the
// response is skipped (and the pooled frame recycled right away). The
// pending frame itself carries the response state, so scheduling does not
// allocate a closure.
func (d *DCF) scheduleResponse(f *Frame, airtime time.Duration, counter *uint64) {
	d.respPending = true
	f.respMAC = d
	f.respAir = airtime
	f.respCounter = counter
	d.sched.AfterFunc(SIFS, respFire, f)
}

// respFire is the SIFS-delayed response trampoline.
func respFire(a any) {
	f := a.(*Frame)
	d := f.respMAC
	air, counter := f.respAir, f.respCounter
	f.respMAC, f.respAir, f.respCounter = nil, 0, nil
	d.respPending = false
	if d.down || d.radio.Transmitting() || d.respInFlight {
		d.recycleFrame(f)
		return
	}
	d.pause()
	d.respInFlight = true
	*counter++
	d.radio.Transmit(f, air)
}
