package pkt

import (
	"strings"
	"testing"
	"unsafe"
)

func TestWireSizes(t *testing.T) {
	if TCPDataSize != 1500 {
		t.Errorf("TCP data size = %d, want 1500 (1460 payload + 40 header)", TCPDataSize)
	}
	if TCPAckSize != 40 {
		t.Errorf("TCP ack size = %d, want 40", TCPAckSize)
	}
	if UDPDataSize != 1488 {
		t.Errorf("UDP data size = %d, want 1488 (1460 payload + 28 header)", UDPDataSize)
	}
}

func TestKindClassification(t *testing.T) {
	if !KindTCPData.IsData() || !KindUDPData.IsData() {
		t.Error("data kinds must report IsData")
	}
	if KindTCPAck.IsData() || KindRouting.IsData() {
		t.Error("ack/routing kinds must not report IsData")
	}
	if KindTCPData.String() != "tcp-data" {
		t.Errorf("KindTCPData = %q", KindTCPData.String())
	}
	if got := Kind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestPacketString(t *testing.T) {
	data := &Packet{UID: 1, Kind: KindTCPData, Src: 0, Dst: 7, TCP: &TCPHeader{Flow: 2, Seq: 41}}
	if s := data.String(); !strings.Contains(s, "seq=41") || !strings.Contains(s, "f2") {
		t.Errorf("data string = %q", s)
	}
	ack := &Packet{UID: 2, Kind: KindTCPAck, Src: 7, Dst: 0, TCP: &TCPHeader{Flow: 2, Ack: 42}}
	if s := ack.String(); !strings.Contains(s, "ack=42") {
		t.Errorf("ack string = %q", s)
	}
	udp := &Packet{UID: 3, Kind: KindUDPData, UDP: &UDPHeader{Flow: 1, Seq: 5}}
	if s := udp.String(); !strings.Contains(s, "udp") {
		t.Errorf("udp string = %q", s)
	}
	route := &Packet{UID: 4, Kind: KindRouting}
	if s := route.String(); !strings.Contains(s, "routing") {
		t.Errorf("routing string = %q", s)
	}
}

func TestPoolRecyclesBlocks(t *testing.T) {
	var pl Pool
	p := pl.NewTCP()
	if p.TCP == nil || p.UDP != nil {
		t.Fatal("NewTCP must attach exactly the TCP header")
	}
	p.TCP.Seq = 7
	p.Kind = KindTCPData
	first := p
	firstUID := p.UID
	p.Release()
	q := pl.NewTCP()
	if q != first {
		t.Error("released block was not reused")
	}
	if q.UID == firstUID {
		t.Error("recycled packet kept its old UID")
	}
	if q.Kind != 0 || q.TCP.Seq != 0 {
		t.Errorf("recycled block not zeroed: kind=%v seq=%d", q.Kind, q.TCP.Seq)
	}
	u := pl.NewUDP()
	if u.UDP == nil || u.TCP != nil {
		t.Fatal("NewUDP must attach exactly the UDP header")
	}
}

func TestPoolRefcountKeepsPacketLive(t *testing.T) {
	var pl Pool
	p := pl.NewTCP()
	p.Retain() // second reference (e.g. a frame on the air)
	p.Release()
	if q := pl.NewTCP(); q == p {
		t.Fatal("block recycled while a reference was still held")
	}
	p.Release() // last reference
	if q := pl.NewTCP(); q != p {
		t.Error("block not recycled after the last release")
	}
}

func TestPoolOverReleasePanics(t *testing.T) {
	var pl Pool
	p := pl.NewTCP()
	p.Release()
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	p.Release()
}

func TestLiteralPacketsIgnoreRefcounting(t *testing.T) {
	p := &Packet{UID: 1}
	p.Retain()
	p.Release()
	p.Release() // must all be no-ops
}

func TestPoolSteadyStateDoesNotAllocate(t *testing.T) {
	var pl Pool
	allocs := testing.AllocsPerRun(200, func() {
		p := pl.NewTCP()
		p.TCP.Seq = 1
		p.Release()
	})
	if allocs > 0 {
		t.Errorf("steady-state pooled construction allocates %.1f objects, want 0", allocs)
	}
}

func TestPoolUIDsUnique(t *testing.T) {
	var u Pool
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		id := u.Next()
		if id == 0 {
			t.Fatal("uid 0 handed out; 0 is reserved for 'unset'")
		}
		if seen[id] {
			t.Fatalf("duplicate uid %d", id)
		}
		seen[id] = true
	}
}

// TestPoolRecyclesControlBlocks pins the recycling law for co-allocated
// AODV headers: a recycled block carries nothing over from its last
// message except the RERR list's storage.
func TestPoolRecyclesControlBlocks(t *testing.T) {
	var pl Pool
	p := pl.NewRREQ()
	if p.Kind != KindRouting || p.Routing == nil || p.Routing.Type != RREQ || p.TCP != nil || p.UDP != nil {
		t.Fatalf("NewRREQ = kind %v, routing %v; want a routing packet with only an RREQ header", p.Kind, p.Routing)
	}
	p.Routing.DstKnown = true
	p.Routing.HopCount = 5
	p.Routing.Origin = 3
	p.Release()
	q := pl.NewRREQ()
	if q != p {
		t.Fatal("released block was not reused")
	}
	if c := *q.Routing; c.DstKnown || c.HopCount != 0 || c.Origin != 0 || c.Type != RREQ || len(c.Unreachable) != 0 {
		t.Errorf("recycled RREQ header = %+v, want zero", *q.Routing)
	}
	q.Release()

	tp := pl.NewTCP()
	if tp != p {
		t.Fatal("released control block was not reused")
	}
	if tp.Routing != nil || tp.Kind != 0 {
		t.Errorf("NewTCP on a recycled control block: routing %v, kind %v; want nil, 0", tp.Routing, tp.Kind)
	}
	tp.Release()

	e := pl.NewRERR()
	e.Routing.Unreachable = append(e.Routing.Unreachable, Unreachable{Dst: 1, Seq: 2}, Unreachable{Dst: 3, Seq: 4})
	capacity := cap(e.Routing.Unreachable)
	e.Release()
	e = pl.NewRERR()
	if got := e.Routing.Unreachable; len(got) != 0 || cap(got) != capacity {
		t.Errorf("recycled RERR list len %d cap %d, want 0 and %d", len(got), cap(got), capacity)
	}
	if e.Routing.Type != RERR {
		t.Errorf("NewRERR type = %v", e.Routing.Type)
	}
	e.Release()

	defer func() {
		if recover() == nil {
			t.Error("double release of a control packet did not panic")
		}
	}()
	e.Release()
}

// TestPacketBlockSize keeps the co-allocated block small: it holds every
// header kind, and one size class more per packet is paid by every flow.
func TestPacketBlockSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got > 224 {
		t.Errorf("Packet is %d bytes, want at most 224", got)
	}
}

// TestPoolResetReclaimsInFlightBlocks checks that the pool owns its
// blocks: Reset takes back the ones a stopped run still held, so taking
// them again allocates nothing, and a reclaimed RERR block keeps its
// Unreachable capacity.
func TestPoolResetReclaimsInFlightBlocks(t *testing.T) {
	var pl Pool
	held := make([]*Packet, 0, 8)
	for i := 0; i < 8; i++ {
		held = append(held, pl.NewTCP())
	}
	rerr := pl.NewRERR()
	rerr.Routing.Unreachable = append(rerr.Routing.Unreachable, Unreachable{Dst: 1, Seq: 2}, Unreachable{Dst: 3, Seq: 4})
	capacity := cap(rerr.Routing.Unreachable)
	held[0].Retain()
	for _, p := range held[:3] {
		p.Release()
	}
	pl.Next() // an id for a literal packet holds no block
	if got := pl.Live(); got != 7 {
		t.Fatalf("Live() = %d before Reset, want 7 (6 data blocks + 1 RERR)", got)
	}

	pl.Reset()
	if got := pl.Live(); got != 0 {
		t.Errorf("Live() = %d after Reset, want 0", got)
	}
	if p := pl.NewUDP(); p.UID != 1 || p.TCP != nil || p.refs != 1 {
		t.Errorf("first block after Reset: UID %d, TCP %v, refs %d; want 1, nil, 1", p.UID, p.TCP, p.refs)
	}
	pl.Reset()

	var maxCap int
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 9; i++ {
			p := pl.NewRERR()
			maxCap = max(maxCap, cap(p.Routing.Unreachable))
			if len(p.Routing.Unreachable) != 0 {
				t.Errorf("reclaimed RERR list has %d entries, want 0", len(p.Routing.Unreachable))
			}
		}
		pl.Reset()
	})
	if allocs != 0 {
		t.Errorf("re-taking the reclaimed blocks allocates %.1f times, want 0", allocs)
	}
	if maxCap != capacity {
		t.Errorf("largest reclaimed RERR capacity = %d, want %d", maxCap, capacity)
	}
}
