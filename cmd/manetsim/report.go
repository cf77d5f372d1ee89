package main

import (
	"fmt"
	"strings"
	"time"

	"manetsim"
)

// printDetails prints a run's measurements below its summary line; wall
// is the run's wall-clock time.
func printDetails(res *manetsim.Result, wall time.Duration) {
	fmt.Printf("  delivered          %d packets in %v simulated (%v wall)\n",
		res.Delivered, res.SimTime.Round(time.Millisecond), wall.Round(time.Millisecond))
	fmt.Printf("  avg window         %.2f packets (±%.2f)\n", res.AvgWindow.Mean, res.AvgWindow.HalfCI)
	fmt.Printf("  retransmissions    %.4f per delivered packet (±%.4f)\n", res.Rtx.Mean, res.Rtx.HalfCI)
	fmt.Printf("  link-layer failures %.4f per attempt (±%.4f)\n", res.DropProb.Mean, res.DropProb.HalfCI)
	fmt.Printf("  route failures     %d false, %d true\n", res.FalseRouteFailures, res.TrueRouteFailures)
	if res.ImpairedFrames > 0 {
		fmt.Printf("  impaired frames    %d (%s)\n", res.ImpairedFrames, res.Config.LinkModel.Label())
	}
	if fr := res.Faults; fr != nil {
		fmt.Printf("  faults             %d injected, %v in outage, %d frames cut\n",
			fr.Injected, fr.TimeInOutage.Round(time.Millisecond), fr.FramesCut)
		fmt.Printf("  outage goodput     %.1f kbit/s during vs %.1f outside\n",
			fr.GoodputDuringBps/1e3, fr.GoodputOutsideBps/1e3)
		for _, o := range fr.Outages {
			line := fmt.Sprintf("    %-30s", o.Fault)
			if o.Recovered {
				line += fmt.Sprintf(" first delivery after %v", o.TimeToRecover.Round(time.Millisecond))
			}
			if o.RecoveredAfterHeal {
				line += fmt.Sprintf(", recovered %v after heal", o.TimeToRecoverAfterHeal.Round(time.Millisecond))
			} else if o.End != 0 {
				line += ", never recovered after heal"
			}
			fmt.Println(line)
		}
	}
	fmt.Printf("  energy             %.1f J total, %.2f J/MB\n", res.Energy.TotalJoules, res.Energy.JoulesPerMB)
	if res.Delay.N > 0 {
		fmt.Printf("  e2e delay          mean %v, p95 %v\n",
			res.Delay.Mean.Round(time.Millisecond), res.Delay.P95.Round(time.Millisecond))
	}
	if len(res.Flows) > 1 {
		fmt.Printf("  Jain fairness      %.3f [%.3f : %.3f]\n", res.Jain.Mean, res.Jain.Lo(), res.Jain.Hi())
		for i, est := range res.PerFlowGood {
			fmt.Printf("    flow %2d (%d->%d)  %.1f kbit/s\n", i+1, res.Flows[i].Src, res.Flows[i].Dst, est.Mean/1e3)
		}
	}
	if res.Truncated {
		fmt.Println("  WARNING: run truncated by MaxSimTime before reaching the packet target")
	}
}

// listEntry prints one registry entry: its name, aliases in parentheses,
// and description.
func listEntry(name string, aliases []string, desc string) {
	if len(aliases) > 0 {
		name += " (" + strings.Join(aliases, ", ") + ")"
	}
	fmt.Printf("  %-26s %s\n", name, desc)
}

// listTransports prints the transport registry, one variant per line.
func listTransports() {
	fmt.Println("registered transports (select with -protocol <name>):")
	for _, info := range manetsim.Transports() {
		listEntry(info.Name, info.Aliases, info.Description)
	}
}

// listLinkModels prints the link-model registry, one model per line.
func listLinkModels() {
	fmt.Println("registered link models (select with -link-model <name>):")
	for _, info := range manetsim.LinkModels() {
		listEntry(info.Name, info.Aliases, info.Description)
	}
}

// listFaults prints the fault registry, one injector per line.
func listFaults() {
	fmt.Println("registered faults (inject with -fault <name>@k=v,...):")
	for _, info := range manetsim.Faults() {
		listEntry(info.Name, info.Aliases, info.Description)
	}
}
