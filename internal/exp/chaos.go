package exp

import (
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
	results, err := runGrid(c, len(renoWestwood), len(faults), func(s, x int) core.Config {
		cfg := chainCfg(4, phy.Rate2Mbps, renoWestwood[s].t)
		cfg.Faults = faults[x].spec
		return cfg
	})
	if err != nil {
		return nil, err
	}
	addSeries(f, results, nameOf(renoWestwood), func(s, x int, r *core.Result) Point {
		if rep := r.Faults; rep != nil && len(rep.Outages) > 0 {
			f.Notes = append(f.Notes, fmt.Sprintf(
				"%s/%s: %v in outage, recovered %v after heal, %.1f kbit/s during vs %.1f outside, %d frames cut",
				renoWestwood[s].name, faults[x].name, rep.TimeInOutage,
				rep.Outages[0].TimeToRecoverAfterHeal.Round(time.Millisecond),
				kbit(rep.GoodputDuringBps), kbit(rep.GoodputOutsideBps), rep.FramesCut))
		}
		return Point{X: faults[x].name, Y: kbit(r.AggGoodput.Mean)}
	})
	f.Notes = append(f.Notes,
		"every fault severs the chain's only path; recovery is a cold AODV re-discovery plus the transport's RTO backoff after the heal")
	return f, nil
}
