// Package aodv implements the Ad hoc On-Demand Distance Vector routing
// protocol (RFC 3561) to the depth the paper's evaluation depends on:
// on-demand route discovery with RREQ flooding and RREP replies
// (including intermediate-node replies), destination sequence numbers,
// RERR propagation, a per-destination send buffer with bounded RREQ
// retries, and — critically for Figure 9 — invalidation of healthy routes
// when the 802.11 MAC reports a transmission failure caused by hidden-
// terminal collisions ("false route failures").
package aodv

// Control message wire sizes in bytes (type + AODV fields + IP header),
// matching ns-2's AODV packet sizing closely enough for airtime purposes.
// The headers themselves are pkt.Control, co-allocated with the packet.
const (
	RREQSize = 48
	RREPSize = 44
	RERRSize = 32
)
