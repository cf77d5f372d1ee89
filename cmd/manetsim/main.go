// Command manetsim runs a single simulation scenario and prints its
// measurements; with the serve subcommand it runs as a long-lived
// simulation service over HTTP.
//
// Every flag sets a field of one manetsim.Config, the JSON shape the
// result store and POST /api/v1/sweeps already use. -config FILE starts
// from such a JSON Config instead of the CLI's defaults, and each flag
// given explicitly overrides its field: an explicit -fault replaces the
// file's fault list, an explicit -topology or -hops its placement and flows.
// -print-config writes the resulting Config, every default filled in, as
// JSON and exits; fed back through -config it runs the same simulation.
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
//	manetsim -topology chain -hops 4 -protocol westwood -print-config > westwood.json
//	manetsim -config westwood.json -seed 2 -fault crash@t=30,node=2,d=5s
//	manetsim -config examples/configs/coexistence.json
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
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"manetsim"
	"manetsim/internal/core"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		runServe(os.Args[2:])
		return
	}
	// Binding a flag writes its default into the field, so the base config
	// (the file, or the CLI's defaults) is in place first and each flag
	// defaults to the base's own value.
	path := configPath(os.Args[1:])
	cfg := manetsim.Config{
		Scenario:     &manetsim.Scenario{Mobility: manetsim.MobilitySpec{MinSpeed: 1, MaxSpeed: 10, Pause: 2 * time.Second, PinFlowEndpoints: true}},
		Transport:    manetsim.TransportSpec{Alpha: 2, UDPGap: 36 * time.Millisecond},
		Seed:         1,
		TotalPackets: 11000,
	}
	if path != "" {
		f, err := os.Open(path)
		if err == nil {
			cfg, err = decodeConfig(f)
			f.Close()
		}
		if err != nil {
			fatalf("-config %s: %v", path, err)
		}
		if cfg.Scenario == nil {
			cfg.Scenario = &manetsim.Scenario{}
		}
	}
	tr, lm, scn := &cfg.Transport, &cfg.LinkModel, cfg.Scenario

	// The four conversion flags: each maps onto its fields below.
	topology := flag.String("topology", "chain", "topology: chain, grid, random, hidden")
	hops := flag.Int("hops", 7, "chain length in hops")
	bandwidth := flag.Float64("bandwidth", 2, "channel bandwidth in Mbit/s: 2, 5.5 or 11")
	protocol := flag.String("protocol", "vegas", "transport by registry name (see -list-transports)")
	mobility := flag.String("mobility", "none", "mobility model: none, waypoint")

	flag.BoolVar(&tr.AckThinning, "thinning", tr.AckThinning, "enable dynamic ACK thinning (TCP)")
	flag.BoolVar(&tr.DelayedAck, "delack", tr.DelayedAck, "enable standard RFC 1122 delayed ACKs (TCP)")
	flag.IntVar(&tr.Alpha, "alpha", tr.Alpha, "Vegas alpha threshold [packets]")
	flag.IntVar(&tr.Params.Beta, "beta", tr.Params.Beta, "Vegas beta threshold [packets]; 0 = alpha")
	flag.IntVar(&tr.Params.Gamma, "gamma", tr.Params.Gamma, "Vegas gamma slow-start exit threshold [packets]; 0 = alpha")
	flag.IntVar(&tr.MaxWindow, "maxwin", tr.MaxWindow, "artificial window bound (NewReno optimal window); 0 = off")
	flag.DurationVar(&tr.UDPGap, "gap", tr.UDPGap, "paced UDP inter-packet time")
	flag.Float64Var(&tr.Params.BWFilterGain, "bw-gain", tr.Params.BWFilterGain, "Westwood+ bandwidth filter pole in (0,1); 0 = default 0.9")
	flag.Float64Var(&tr.Params.CoVWeight, "cov-weight", tr.Params.CoVWeight, "adaptive pacing RTT-variability weight; 0 = default 2")
	flag.DurationVar(&tr.Params.MinPaceGap, "pace-floor", tr.Params.MinPaceGap, "adaptive pacing minimum inter-packet gap; 0 = default 1ms")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "random seed (runs are deterministic per seed)")
	flag.Int64Var(&cfg.TotalPackets, "packets", cfg.TotalPackets, "packets to deliver (paper: 110000)")
	flag.Int64Var(&cfg.BatchPackets, "batch", cfg.BatchPackets, "batch size (default packets/11; paper: 10000)")
	flag.BoolFunc("static-routes", "use precomputed shortest-path routes instead of AODV", func(v string) error {
		static, err := strconv.ParseBool(v)
		scn.Routing = manetsim.RoutingAODV
		if static {
			scn.Routing = manetsim.RoutingStatic
		}
		return err
	})
	flag.BoolVar(&cfg.NoCapture, "no-capture", cfg.NoCapture, "disable the PHY 10 dB capture rule (ablation)")
	flag.DurationVar(&cfg.MaxSimTime, "max-sim-time", cfg.MaxSimTime, "simulated-time bound (0 = 24h default); mobile runs can starve")
	flag.IntVar(&cfg.RTSThreshold, "rts-threshold", cfg.RTSThreshold, "skip RTS/CTS for unicast frames <= bytes (0 = handshake on every frame)")

	flag.StringVar(&lm.Name, "link-model", lm.Name, "link-impairment model by registry name (see -list-link-models); empty = perfect channel")
	flag.Float64Var(&lm.LossRate, "loss", lm.LossRate, "uniform/distance per-frame loss probability in [0,1]")
	flag.Float64Var(&lm.BER, "ber", lm.BER, "bit error rate for -link-model ber")
	flag.IntVar(&lm.FrameBits, "frame-bits", lm.FrameBits, "frame length in bits for -link-model ber")
	flag.Float64Var(&lm.PGoodBad, "ge-good-bad", lm.PGoodBad, "Gilbert-Elliott per-frame good->bad transition probability")
	flag.Float64Var(&lm.PBadGood, "ge-bad-good", lm.PBadGood, "Gilbert-Elliott per-frame bad->good transition probability")
	flag.Float64Var(&lm.LossBad, "ge-loss-bad", lm.LossBad, "Gilbert-Elliott loss probability while in the bad state")
	flag.DurationVar(&lm.Jitter, "jitter", lm.Jitter, "maximum per-link extra propagation delay (uniform in [0,jitter)); at most 10us, half the MAC slot time")
	flag.Float64Var(&lm.CaptureRatio, "capture-ratio", lm.CaptureRatio, "receiver capture power ratio; 0 = default 10 dB rule")

	flag.Float64Var(&scn.Mobility.MaxSpeed, "vmax", scn.Mobility.MaxSpeed, "random waypoint maximum speed [m/s]")
	flag.Float64Var(&scn.Mobility.MinSpeed, "vmin", scn.Mobility.MinSpeed, "random waypoint minimum speed [m/s]")
	flag.DurationVar(&scn.Mobility.Pause, "pause", scn.Mobility.Pause, "random waypoint pause at each waypoint")
	flag.Float64Var(&scn.Mobility.FieldWidth, "field-width", scn.Mobility.FieldWidth, "mobility field width [m] (set with -field-height; both 0 = initial bounding box)")
	flag.Float64Var(&scn.Mobility.FieldHeight, "field-height", scn.Mobility.FieldHeight, "mobility field height [m] (set with -field-width; both 0 = initial bounding box)")
	flag.BoolVar(&scn.Mobility.PinFlowEndpoints, "pin-endpoints", scn.Mobility.PinFlowEndpoints, "keep flow endpoints stationary (mobility only)")
	flag.Var(&faultFlags{dst: &cfg.Faults}, "fault", "inject a fault: name@k=v,... e.g. crash@t=30,node=3 (repeatable, replaces -config's faults; see -list-faults)")

	// Output only: none of these reaches the Config.
	flag.String("config", "", "run the JSON Config in `file`; flags given explicitly override its fields")
	printConfig := flag.Bool("print-config", false, "print the Config as JSON, defaults filled in, and exit")
	quiet := flag.Bool("q", false, "print only the summary line")
	progress := flag.Bool("progress", false, "stream per-batch progress while the run executes")
	listTr := flag.Bool("list-transports", false, "print the transport registry and exit")
	listLM := flag.Bool("list-link-models", false, "print the link-model registry and exit")
	listFl := flag.Bool("list-faults", false, "print the fault registry and exit")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "manetsim: unexpected argument %q\n", flag.Arg(0))
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *listTr:
		listTransports()
		return
	case *listLM:
		listLinkModels()
		return
	case *listFl:
		listFaults()
		return
	}

	// Without a file every conversion runs, as the defaults are the CLI's;
	// with one, only those whose flags were given.
	explicit := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
	given := func(name string) bool { return path == "" || explicit[name] }
	if given("topology") || given("hops") {
		build := map[string]func() *manetsim.Scenario{
			"chain": func() *manetsim.Scenario { return manetsim.Chain(*hops) },
			"grid":  manetsim.Grid, "random": manetsim.Random, "hidden": manetsim.HiddenTerminal,
		}[strings.ToLower(*topology)]
		if build == nil {
			fatalf("unknown topology %q", *topology)
		}
		cfg.Scenario = build()
		cfg.Scenario.Routing, cfg.Scenario.Mobility = scn.Routing, scn.Mobility
	}
	if given("bandwidth") {
		switch cfg.Bandwidth = manetsim.Rate(*bandwidth * 1e6); cfg.Bandwidth {
		case manetsim.Rate2Mbps, manetsim.Rate5_5Mbps, manetsim.Rate11Mbps:
		default:
			fatalf("bandwidth must be 2, 5.5 or 11 (Mbit/s)")
		}
	}
	if given("protocol") {
		// Paced UDP keeps only its gap; every other transport ignores the
		// gap and the flags irrelevant to it.
		switch name := strings.ToLower(*protocol); name {
		case "udp", "pacedudp":
			*tr = manetsim.TransportSpec{Name: name, UDPGap: tr.UDPGap}
		default:
			tr.Name, tr.Protocol, tr.UDPGap = name, 0, 0
		}
	}
	if given("mobility") {
		switch strings.ToLower(*mobility) {
		case "none":
			cfg.Scenario.Mobility = manetsim.MobilitySpec{}
		case "waypoint":
			cfg.Scenario.Mobility.Kind = manetsim.MobilityRandomWaypoint
		default:
			fatalf("unknown mobility model %q (none, waypoint)", *mobility)
		}
	}
	if *printConfig {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(core.WithDefaults(cfg)); err != nil {
			fatalf("%v", err)
		}
		return
	}
	if *progress {
		cfg.Observer = &manetsim.Observer{
			Progress: func(delivered, total int64, simTime time.Duration) {
				fmt.Printf("  ... %d/%d packets at t=%v\n", delivered, total, simTime.Round(time.Millisecond))
			},
		}
	}

	start := time.Now()
	res, err := manetsim.RunConfig(context.Background(), cfg)
	if err != nil {
		fatalf("%v", err)
	}

	where := cfg.Scenario.Name
	switch {
	case given("topology"):
		where = *topology
	case where == "":
		where = path
	}
	fmt.Printf("%s over %s at %.1f Mbit/s (seed %d): goodput %.1f kbit/s (±%.1f)\n",
		tr.Label(), where, float64(res.Config.Bandwidth)/1e6, cfg.Seed,
		res.AggGoodput.Mean/1e3, res.AggGoodput.HalfCI/1e3)
	if *quiet {
		return
	}
	printDetails(res, time.Since(start))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "manetsim: "+format+"\n", args...)
	os.Exit(2)
}

// configPath returns the -config argument ahead of flag parsing (the last
// one, as the flag package keeps).
func configPath(args []string) (path string) {
	for i, a := range args {
		if a == "--" {
			break
		}
		switch name, val, ok := strings.Cut(strings.TrimLeft(a, "-"), "="); {
		case !strings.HasPrefix(a, "-") || name != "config":
		case ok:
			path = val
		case i+1 < len(args):
			path = args[i+1]
		}
	}
	return path
}

// decodeConfig reads exactly one JSON Config, the shape the result store
// and POST /api/v1/sweeps use. An unknown field or trailing data is an
// error, so a misspelt field cannot silently fall back to its default.
func decodeConfig(r io.Reader) (manetsim.Config, error) {
	var cfg manetsim.Config
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return manetsim.Config{}, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return manetsim.Config{}, errors.New("trailing data after the config")
	}
	return cfg, nil
}
