package tcp

import (
	"testing"

	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

// TestEngineHotPathZeroAllocs pins the zero-allocation contract of the
// engine/strategy seam for every shipped variant: once the window and the
// in-flight bookkeeping have saturated, processing an ACK — strategy
// dispatch, RTO accounting, window update, and the transmissions it
// clocks out — performs no heap allocations. The strategies are bound at
// build time; a regression here means a closure, an escaping Ack, or
// per-packet state crept into the per-ACK path.
func TestEngineHotPathZeroAllocs(t *testing.T) {
	for _, v := range ccVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			sched := sim.NewScheduler(1)
			var uids pkt.Pool
			out := func(p *pkt.Packet) { p.Release() }
			e := NewEngine(sched, Config{}, 1, 0, 1, &uids, out, v.mk())
			e.Start()

			ack := uids.NewTCP()
			defer ack.Release()
			ack.Kind = pkt.KindTCPAck
			ack.TCP.Flow = 1
			next := int64(1)
			feed := func() {
				ack.TCP.Ack = next
				ack.TCP.SentAt = sched.Now()
				next++
				e.HandleAck(ack)
			}
			// Saturate the window, the sentAt map and the packet pool
			// before measuring.
			for i := 0; i < 256; i++ {
				feed()
			}
			if allocs := testing.AllocsPerRun(512, feed); allocs > 0 {
				t.Errorf("ACK hot path allocates %.2f objects per ACK, want 0", allocs)
			}
		})
	}
}
