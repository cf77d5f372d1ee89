package exp

import (
	"context"
	"fmt"
	"time"

	"manetsim"
	"manetsim/internal/core"
	"manetsim/internal/phy"
)

// Chaos is the fault-injection extension experiment: Reno and Westwood+
// on a 4-hop chain, fault-free and under each built-in disturbance — a
// mid-chain relay crash, a blackout of the 1<->2 link, and an axis
// partition through the middle of the chain, each severing the only
// path for two seconds. Goodput is the figure; the resilience metrics
// (time in outage, recovery after heal, frames cut at the PHY) land in
// the notes. Fault transitions draw no randomness, so the figure also
// pins that faulted runs stay byte-deterministic per seed.
func Chaos(c *manetsim.Campaign) (*Figure, error) {
	f := &Figure{
		ID: "chaos", Title: "4-hop chain, 2 Mbit/s: goodput under injected faults (2 s outage at t=10s)",
		XLabel: "fault", YLabel: "goodput [kbit/s]",
	}
	faults := []struct {
		name string
		spec []core.FaultSpec
	}{
		{"none", nil},
		{"crash", []core.FaultSpec{core.CrashFault(2, 10*time.Second, 2*time.Second)}},
		{"blackout", []core.FaultSpec{core.BlackoutFault(1, 2, 10*time.Second, 2*time.Second)}},
		{"partition", []core.FaultSpec{core.PartitionFault(500, 10*time.Second, 2*time.Second)}},
	}
	variants := []struct {
		name string
		t    core.TransportSpec
	}{
		{"Reno", core.TransportSpec{Protocol: core.ProtoReno}},
		{"Westwood+", core.TransportSpec{Name: "westwood"}},
	}
	for _, v := range variants {
		var cfgs []core.Config
		for _, fs := range faults {
			cfg := chainCfg(4, phy.Rate2Mbps, v.t)
			cfg.Faults = fs.spec
			cfgs = append(cfgs, cfg)
		}
		results, err := c.RunAll(context.Background(), cfgs)
		if err != nil {
			return nil, err
		}
		s := Series{Name: v.name}
		for i, res := range results {
			s.Points = append(s.Points, Point{X: faults[i].name, Y: kbit(res.AggGoodput.Mean)})
			if rep := res.Faults; rep != nil && len(rep.Outages) > 0 {
				o := rep.Outages[0]
				f.Notes = append(f.Notes, fmt.Sprintf(
					"%s/%s: %v in outage, recovered %v after heal, %.1f kbit/s during vs %.1f outside, %d frames cut",
					v.name, faults[i].name, rep.TimeInOutage,
					o.TimeToRecoverAfterHeal.Round(time.Millisecond),
					kbit(rep.GoodputDuringBps), kbit(rep.GoodputOutsideBps), rep.FramesCut))
			}
		}
		f.Series = append(f.Series, s)
	}
	f.Notes = append(f.Notes,
		"every fault severs the chain's only path; recovery is a cold AODV re-discovery plus the transport's RTO backoff after the heal")
	return f, nil
}
