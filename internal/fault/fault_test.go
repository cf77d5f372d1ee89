package fault

import (
	"testing"
	"time"

	"manetsim/internal/geo"
	"manetsim/internal/pkt"
	"manetsim/internal/sim"
)

func TestPlaneNodeCrash(t *testing.T) {
	var p Plane
	p.Reset(4)
	if !p.Quiet() || p.NodeDown(2) {
		t.Fatal("fresh plane must be quiet with all nodes up")
	}
	var downs, ups []pkt.NodeID
	p.OnNodeDown = func(id pkt.NodeID) { downs = append(downs, id) }
	p.OnNodeUp = func(id pkt.NodeID) { ups = append(ups, id) }

	p.CrashNode(2)
	if p.Quiet() || !p.NodeDown(2) {
		t.Fatal("crash did not register")
	}
	if !p.Severed(1, 2) || !p.Severed(2, 3) {
		t.Fatal("links touching a down node must be severed")
	}
	if p.Severed(0, 1) {
		t.Fatal("links between live nodes must stay up")
	}
	p.CrashNode(2)
	p.RestoreNode(2)
	if p.Quiet() || !p.NodeDown(2) || !p.Severed(1, 2) {
		t.Fatal("nested crash must survive one restore")
	}
	if len(ups) != 0 {
		t.Fatalf("OnNodeUp fired %v while a crash was still in force", ups)
	}
	p.RestoreNode(2)
	if !p.Quiet() || p.NodeDown(2) || p.Severed(1, 2) {
		t.Fatal("node must come back after matching restores")
	}
	p.RestoreNode(2) // a node that is up stays up
	if !p.Quiet() || p.NodeDown(2) {
		t.Fatal("restoring a live node changed the plane")
	}
	if len(downs) != 1 || downs[0] != 2 || len(ups) != 1 || ups[0] != 2 {
		t.Fatalf("hooks fired downs=%v ups=%v, want one each for node 2", downs, ups)
	}
}

func TestPlaneLinkBlackoutNests(t *testing.T) {
	var p Plane
	p.Reset(3)
	p.BlockLink(0, 1)
	p.BlockLink(0, 1)
	if !p.Severed(0, 1) {
		t.Fatal("blocked link must be severed")
	}
	if p.Severed(1, 0) {
		t.Fatal("blackout is directed; reverse link must stay up")
	}
	p.UnblockLink(0, 1)
	if !p.Severed(0, 1) {
		t.Fatal("nested blackout must survive one unblock")
	}
	p.UnblockLink(0, 1)
	if p.Severed(0, 1) || !p.Quiet() {
		t.Fatal("link must recover after matching unblocks")
	}
}

func TestPlanePartition(t *testing.T) {
	var p Plane
	p.Reset(4)
	p.StartPartition([]bool{true, true, false, false})
	if !p.Severed(1, 2) || !p.Severed(2, 1) {
		t.Fatal("cross-partition links must be severed both ways")
	}
	if p.Severed(0, 1) || p.Severed(2, 3) {
		t.Fatal("intra-side links must stay up")
	}
	p.Heal()
	if p.Severed(1, 2) || !p.Quiet() {
		t.Fatal("healed partition must restore links")
	}
}

func TestPlaneResetClearsState(t *testing.T) {
	var p Plane
	p.Reset(3)
	p.OnNodeDown = func(pkt.NodeID) {}
	p.CrashNode(0)
	p.BlockLink(1, 2)
	p.StartPartition([]bool{true, false, false})
	p.Reset(3)
	if !p.Quiet() || p.NodeDown(0) || p.Severed(1, 2) || p.OnNodeDown != nil {
		t.Fatal("Reset must clear all fault state and hooks")
	}
}

func TestInjectorsSchedule(t *testing.T) {
	s := sim.NewScheduler(1)
	var p Plane
	p.Reset(5)
	env := Env{Sched: s, Plane: &p, Positions: geo.Chain(4)}

	NodeCrash{Node: 2, At: 10 * time.Second, Downtime: 5 * time.Second}.Schedule(env)
	LinkBlackout{From: 0, To: 1, Bidirectional: true, At: 12 * time.Second, Duration: 2 * time.Second}.Schedule(env)
	Partition{At: 20 * time.Second, Duration: 3 * time.Second, Axis: "x", Cut: 500}.Schedule(env)

	s.RunUntil(11 * time.Second)
	if !p.NodeDown(2) {
		t.Fatal("crash must be in force at t=11s")
	}
	s.RunUntil(13 * time.Second)
	if !p.Severed(0, 1) || !p.Severed(1, 0) {
		t.Fatal("bidirectional blackout must sever both directions at t=13s")
	}
	s.RunUntil(16 * time.Second)
	if p.NodeDown(2) || p.Severed(0, 1) {
		t.Fatal("crash and blackout must have recovered by t=16s")
	}
	s.RunUntil(21 * time.Second)
	// Chain(4): nodes at x = 0,200,400,600,800; cut at 500 puts 0-2 on side A.
	if !p.Severed(2, 3) || p.Severed(0, 2) || p.Severed(3, 4) {
		t.Fatal("axis partition must sever only cross-cut links")
	}
	s.RunUntil(24 * time.Second)
	if !p.Quiet() {
		t.Fatal("all faults must have healed by t=24s")
	}
}

func TestPartitionExplicitSideA(t *testing.T) {
	s := sim.NewScheduler(1)
	var p Plane
	p.Reset(4)
	env := Env{Sched: s, Plane: &p, Positions: make([]geo.Point, 4)}
	Partition{At: time.Second, SideA: []pkt.NodeID{0, 3}}.Schedule(env)
	s.RunUntil(2 * time.Second)
	if !p.Severed(0, 1) || p.Severed(0, 3) || p.Severed(1, 2) {
		t.Fatal("explicit side set must define the cut")
	}
}
