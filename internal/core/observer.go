package core

import (
	"time"

	"manetsim/internal/pkt"
)

// Observer receives run events from a simulation in progress; nil
// callbacks are skipped. All are invoked synchronously from inside the
// single-threaded event loop, so they must not block and must not call
// back into the run; they may safely accumulate state without locking.
// Callbacks add only rare-path work (batch boundaries, retransmissions,
// route failures), and the retransmit and route-failure hooks are bound
// only when set — with no observer attached the run is byte-identical and
// allocation-free, preserving the zero-alloc kernel.
type Observer struct {
	// Batch is called when a measurement batch closes. The batch's slices
	// are owned by the result; treat them as read-only.
	Batch func(b Batch)
	// WindowSample reports a flow's time-averaged congestion window over
	// the batch that just closed (zero for UDP flows).
	WindowSample func(flow int, window float64)
	// Retransmit fires for every transport-layer retransmission.
	Retransmit func(flow int)
	// RouteFailure fires for every classified AODV route teardown at
	// node. falseFailure follows the paper's definition: the MAC gave up
	// on a link that was actually healthy.
	RouteFailure func(node pkt.NodeID, falseFailure bool)
	// Progress reports cumulative delivery after each batch boundary.
	Progress func(delivered, total int64, simTime time.Duration)
}
