// Command manetsim runs a single simulation scenario and prints its
// measurements; with the serve subcommand it runs as a long-lived
// simulation service over HTTP.
//
// Examples:
//
//	manetsim -topology chain -hops 7 -protocol vegas -bandwidth 2
//	manetsim -topology grid -protocol newreno -thinning -bandwidth 11
//	manetsim -topology chain -hops 7 -protocol udp -gap 36ms
//	manetsim -topology chain -hops 7 -protocol westwood
//	manetsim -topology chain -hops 7 -protocol pacing -cov-weight 3
//	manetsim -topology random -protocol vegas -packets 110000 -batch 10000
//	manetsim -topology chain -hops 7 -protocol westwood -link-model uniform -loss 0.02
//	manetsim -topology chain -hops 3 -link-model ber -ber 1e-5 -frame-bits 12224
//	manetsim -topology hidden -protocol newreno -rts-threshold 4096
//	manetsim -topology chain -hops 4 -fault crash@t=30,node=2,d=5s
//	manetsim -topology grid -fault partition@t=45s,d=10s,cut=500 -fault blackout@t=80,from=1,to=2,d=5s
//	manetsim -list-transports
//	manetsim -list-link-models
//	manetsim -list-faults
//
//	manetsim serve -addr :8971 -store /var/lib/manetsim/store
//	curl -XPOST localhost:8971/api/v1/sweeps -d @sweep.json   # -> {"id":"sweep-1",...}
//	curl -N localhost:8971/api/v1/sweeps/sweep-1/events       # NDJSON progress
//	curl localhost:8971/api/v1/sweeps/sweep-1/results
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"manetsim"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	var (
		topology  = flag.String("topology", "chain", "topology: chain, grid, random, hidden")
		hops      = flag.Int("hops", 7, "chain length in hops")
		protocol  = flag.String("protocol", "vegas", "transport by registry name (see -list-transports)")
		listTr    = flag.Bool("list-transports", false, "print the transport registry and exit")
		thinning  = flag.Bool("thinning", false, "enable dynamic ACK thinning (TCP)")
		delack    = flag.Bool("delack", false, "enable standard RFC 1122 delayed ACKs (TCP)")
		alpha     = flag.Int("alpha", 2, "Vegas alpha threshold [packets]")
		beta      = flag.Int("beta", 0, "Vegas beta threshold [packets]; 0 = alpha")
		gamma     = flag.Int("gamma", 0, "Vegas gamma slow-start exit threshold [packets]; 0 = alpha")
		maxWin    = flag.Int("maxwin", 0, "artificial window bound (NewReno optimal window); 0 = off")
		gap       = flag.Duration("gap", 36*time.Millisecond, "paced UDP inter-packet time")
		bwGain    = flag.Float64("bw-gain", 0, "Westwood+ bandwidth filter pole in (0,1); 0 = default 0.9")
		covWeight = flag.Float64("cov-weight", 0, "adaptive pacing RTT-variability weight; 0 = default 2")
		paceFloor = flag.Duration("pace-floor", 0, "adaptive pacing minimum inter-packet gap; 0 = default 1ms")
		bandwidth = flag.Float64("bandwidth", 2, "channel bandwidth in Mbit/s: 2, 5.5 or 11")
		seed      = flag.Int64("seed", 1, "random seed (runs are deterministic per seed)")
		packets   = flag.Int64("packets", 11000, "packets to deliver (paper: 110000)")
		batch     = flag.Int64("batch", 0, "batch size (default packets/11; paper: 10000)")
		static    = flag.Bool("static-routes", false, "use precomputed shortest-path routes instead of AODV")
		nocapture = flag.Bool("no-capture", false, "disable the PHY 10 dB capture rule (ablation)")
		quiet     = flag.Bool("q", false, "print only the summary line")

		linkModel = flag.String("link-model", "", "link-impairment model by registry name (see -list-link-models); empty = perfect channel")
		listLM    = flag.Bool("list-link-models", false, "print the link-model registry and exit")
		lossRate  = flag.Float64("loss", 0, "uniform/distance per-frame loss probability in [0,1]")
		ber       = flag.Float64("ber", 0, "bit error rate for -link-model ber")
		frameBits = flag.Int("frame-bits", 0, "frame length in bits for -link-model ber")
		gePGB     = flag.Float64("ge-good-bad", 0, "Gilbert-Elliott per-frame good->bad transition probability")
		gePBG     = flag.Float64("ge-bad-good", 0, "Gilbert-Elliott per-frame bad->good transition probability")
		geLossBad = flag.Float64("ge-loss-bad", 0, "Gilbert-Elliott loss probability while in the bad state")
		jitter    = flag.Duration("jitter", 0, "maximum per-link extra propagation delay (uniform in [0,jitter))")
		capRatio  = flag.Float64("capture-ratio", 0, "receiver capture power ratio; 0 = default 10 dB rule")
		rtsThresh = flag.Int("rts-threshold", 0, "skip RTS/CTS for unicast frames <= bytes (0 = handshake on every frame)")

		listFl = flag.Bool("list-faults", false, "print the fault registry and exit")

		mobilityKind = flag.String("mobility", "none", "mobility model: none, waypoint")
		vmax         = flag.Float64("vmax", 10, "random waypoint maximum speed [m/s]")
		vmin         = flag.Float64("vmin", 1, "random waypoint minimum speed [m/s]")
		mpause       = flag.Duration("pause", 2*time.Second, "random waypoint pause at each waypoint")
		fieldW       = flag.Float64("field-width", 0, "mobility field width [m] (set with -field-height; both 0 = initial bounding box)")
		fieldH       = flag.Float64("field-height", 0, "mobility field height [m] (set with -field-width; both 0 = initial bounding box)")
		pin          = flag.Bool("pin-endpoints", true, "keep flow endpoints stationary (mobility only)")
		maxSimTime   = flag.Duration("max-sim-time", 0, "simulated-time bound (0 = 24h default); mobile runs can starve")
		progress     = flag.Bool("progress", false, "stream per-batch progress while the run executes")
	)
	var faults faultFlags
	flag.Var(&faults, "fault", "inject a fault: name@k=v,... e.g. crash@t=30,node=3 (repeatable; see -list-faults)")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "manetsim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}

	if *listTr {
		listTransports()
		return
	}
	if *listLM {
		listLinkModels()
		return
	}
	if *listFl {
		listFaults()
		return
	}

	var scn *manetsim.Scenario
	switch strings.ToLower(*topology) {
	case "chain":
		scn = manetsim.Chain(*hops)
	case "grid":
		scn = manetsim.Grid()
	case "random":
		scn = manetsim.Random()
	case "hidden":
		scn = manetsim.HiddenTerminal()
	default:
		fatalf("unknown topology %q", *topology)
	}
	var rate manetsim.Rate
	switch *bandwidth {
	case 2:
		rate = manetsim.Rate2Mbps
	case 5.5:
		rate = manetsim.Rate5_5Mbps
	case 11:
		rate = manetsim.Rate11Mbps
	default:
		fatalf("bandwidth must be 2, 5.5 or 11 (Mbit/s)")
	}
	// Any registered transport is selectable by name; the per-variant
	// flags fold into the spec and irrelevant ones are ignored by the
	// variant (paced UDP keeps its dedicated -gap wiring).
	name := strings.ToLower(*protocol)
	tspec := manetsim.TransportSpec{
		Name:        name,
		AckThinning: *thinning,
		DelayedAck:  *delack,
		MaxWindow:   *maxWin,
		Params: manetsim.Params{
			Beta:         *beta,
			Gamma:        *gamma,
			BWFilterGain: *bwGain,
			CoVWeight:    *covWeight,
			MinPaceGap:   *paceFloor,
		},
	}
	switch name {
	case "vegas":
		tspec.Alpha = *alpha
	case "udp", "pacedudp":
		tspec = manetsim.TransportSpec{Name: name, UDPGap: *gap}
	}
	if *static {
		scn.WithRouting(manetsim.RoutingStatic)
	}
	switch strings.ToLower(*mobilityKind) {
	case "none":
	case "waypoint":
		scn.WithMobility(manetsim.MobilitySpec{
			Kind:             manetsim.MobilityRandomWaypoint,
			MinSpeed:         *vmin,
			MaxSpeed:         *vmax,
			Pause:            *mpause,
			FieldWidth:       *fieldW,
			FieldHeight:      *fieldH,
			PinFlowEndpoints: *pin,
		})
	default:
		fatalf("unknown mobility model %q (none, waypoint)", *mobilityKind)
	}

	opts := []manetsim.Option{
		manetsim.WithBandwidth(rate),
		manetsim.WithTransport(tspec),
		manetsim.WithSeed(*seed),
		manetsim.WithPackets(*packets, *batch),
		manetsim.WithMaxSimTime(*maxSimTime),
	}
	if *nocapture {
		opts = append(opts, manetsim.WithoutCapture())
	}
	lspec := manetsim.LinkModelSpec{
		Name:     strings.ToLower(*linkModel),
		LossRate: *lossRate,
		BER:      *ber, FrameBits: *frameBits,
		PGoodBad: *gePGB, PBadGood: *gePBG, LossBad: *geLossBad,
		Jitter:       *jitter,
		CaptureRatio: *capRatio,
	}
	if !lspec.IsZero() {
		opts = append(opts, manetsim.WithLinkModel(lspec))
	}
	if *rtsThresh != 0 {
		opts = append(opts, manetsim.WithRTSThreshold(*rtsThresh))
	}
	if len(faults.specs) > 0 {
		opts = append(opts, manetsim.WithFaults(faults.specs...))
	}
	if *progress {
		opts = append(opts, manetsim.WithObserver(manetsim.ObserverFuncs{
			Progress: func(delivered, total int64, simTime time.Duration) {
				fmt.Printf("  ... %d/%d packets at t=%v\n", delivered, total, simTime.Round(time.Millisecond))
			},
		}))
	}

	start := time.Now()
	res, err := manetsim.Run(context.Background(), scn, opts...)
	if err != nil {
		fatalf("%v", err)
	}

	fmt.Printf("%s over %s at %.1f Mbit/s (seed %d): goodput %.1f kbit/s (±%.1f)\n",
		tspec.Label(), *topology, *bandwidth, *seed,
		res.AggGoodput.Mean/1e3, res.AggGoodput.HalfCI/1e3)
	if *quiet {
		return
	}
	fmt.Printf("  delivered          %d packets in %v simulated (%v wall)\n",
		res.Delivered, res.SimTime.Round(time.Millisecond), time.Since(start).Round(time.Millisecond))
	fmt.Printf("  avg window         %.2f packets (±%.2f)\n", res.AvgWindow.Mean, res.AvgWindow.HalfCI)
	fmt.Printf("  retransmissions    %.4f per delivered packet (±%.4f)\n", res.Rtx.Mean, res.Rtx.HalfCI)
	fmt.Printf("  link-layer failures %.4f per attempt (±%.4f)\n", res.DropProb.Mean, res.DropProb.HalfCI)
	fmt.Printf("  route failures     %d false, %d true\n", res.FalseRouteFailures, res.TrueRouteFailures)
	if res.ImpairedFrames > 0 {
		fmt.Printf("  impaired frames    %d (%s)\n", res.ImpairedFrames, lspec.Label())
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

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "manetsim: "+format+"\n", args...)
	os.Exit(2)
}
