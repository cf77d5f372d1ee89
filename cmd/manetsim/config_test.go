package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"manetsim"
	"manetsim/internal/linkmodel"
)

// flagForms gives, for each example config the flags can express, the
// flags that express it.
var flagForms = map[string][]string{
	"transport.json": {"-topology", "chain", "-hops", "4", "-protocol", "vegas", "-alpha", "3", "-delack", "-beta", "5", "-gamma", "1"},
	"linkmodel.json": {"-topology", "chain", "-hops", "3", "-protocol", "westwood", "-bw-gain", "0.8", "-bandwidth", "11",
		"-link-model", "gilbert-elliott", "-ge-good-bad", "0.05", "-ge-bad-good", "0.3", "-ge-loss-bad", "0.5", "-jitter", "5us", "-capture-ratio", "4"},
	"faults.json": {"-topology", "chain", "-hops", "4", "-protocol", "newreno", "-maxwin", "3",
		"-fault", "crash@t=3,node=2,d=2s", "-fault", "blackout@t=6,from=1,to=2,d=1s"},
	"waypoint.json":  {"-topology", "grid", "-protocol", "vegas", "-mobility", "waypoint", "-vmax", "5", "-pause", "1s"},
	"generator.json": {"-topology", "random", "-protocol", "newreno", "-thinning", "-static-routes", "-bandwidth", "5.5", "-seed", "3"},
}

// printedConfig runs manetsim args -print-config and decodes what it prints.
func printedConfig(t *testing.T, args ...string) (manetsim.Config, []byte) {
	t.Helper()
	code, stdout, stderr := manetsimExit(t, append(args, "-print-config")...)
	if code != 0 {
		t.Fatalf("manetsim %v -print-config exits %d: %s", args, code, stderr)
	}
	cfg, err := decodeConfig(strings.NewReader(stdout))
	if err != nil {
		t.Fatalf("manetsim %v -print-config printed a config -config rejects: %v", args, err)
	}
	return cfg, []byte(stdout)
}

// resultJSON runs cfg and returns its Result as JSON.
func resultJSON(t *testing.T, cfg manetsim.Config) []byte {
	t.Helper()
	res, err := manetsim.RunConfig(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// outcome runs cfg and returns its Result as JSON, or its error.
func outcome(cfg manetsim.Config) string {
	res, err := manetsim.RunConfig(context.Background(), cfg)
	if err != nil {
		return "error: " + err.Error()
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "error: " + err.Error()
	}
	return string(b)
}

// TestSummaryLinesGolden runs every flag-only run example of the command's
// doc comment at 1100 packets and compares the summary line with the
// pinned one: how flags become a Config must not change what a command
// line runs. A pinned line "exit N: MSG" is a command that must fail with
// exit code N and print MSG on stderr.
func TestSummaryLinesGolden(t *testing.T) {
	f, err := os.Open("testdata/summary.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		args := strings.Fields(strings.TrimPrefix(sc.Text(), "$ "))
		if !sc.Scan() {
			t.Fatalf("golden ends after %v", args)
		}
		code, stdout, stderr := manetsimExit(t, args...)
		got := stdout
		if code != 0 {
			got = fmt.Sprintf("exit %d: %s", code, stderr)
		}
		if want := sc.Text() + "\n"; got != want {
			t.Errorf("manetsim %v:\n got %q\nwant %q", args, got, want)
		}
	}
}

// TestExampleConfigsFlagsAndFileAgree: each example config the flags can
// express gives the same Result by file as by flags, and every one of
// them runs.
func TestExampleConfigsFlagsAndFileAgree(t *testing.T) {
	files, err := filepath.Glob("../../examples/configs/*.json")
	if err != nil || len(files) < len(flagForms)+1 {
		t.Fatalf("examples/configs holds %d configs (%v), want at least %d", len(files), err, len(flagForms)+1)
	}
	seen := 0
	for _, path := range files {
		name := filepath.Base(path)
		fileCfg, _ := printedConfig(t, "-config", path, "-packets", "550")
		byFile := resultJSON(t, fileCfg)
		flags, ok := flagForms[name]
		if !ok {
			continue
		}
		seen++
		flagCfg, _ := printedConfig(t, append(flags, "-packets", "550")...)
		if byFlags := resultJSON(t, flagCfg); !bytes.Equal(byFile, byFlags) {
			t.Errorf("%s: Result by file and by flags %v differ:\n%s\n%s", name, flags, byFile, byFlags)
		}
	}
	if seen != len(flagForms) {
		t.Errorf("found %d of the %d example configs with a flag form", seen, len(flagForms))
	}
}

// TestPrintConfigRoundTrip: what -print-config prints for each golden
// command, fed back through -config, prints the same bytes and runs to the
// same Result (or the same error).
func TestPrintConfigRoundTrip(t *testing.T) {
	golden, err := os.ReadFile("testdata/summary.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(golden), "\n") {
		if !strings.HasPrefix(line, "$ ") {
			continue
		}
		args := strings.Fields(strings.TrimPrefix(line, "$ "))
		cfg, printed := printedConfig(t, args...)
		path := filepath.Join(t.TempDir(), "config.json")
		if err := os.WriteFile(path, printed, 0o644); err != nil {
			t.Fatal(err)
		}
		again, reprinted := printedConfig(t, "-config", path)
		if !bytes.Equal(printed, reprinted) {
			t.Errorf("%v: -print-config through -config changed:\n%s\n%s", args, printed, reprinted)
			continue
		}
		if a, b := outcome(cfg), outcome(again); a != b {
			t.Errorf("%v: run by flags and by the printed file differ:\n%s\n%s", args, a, b)
		}
	}
}

// TestConfigOverrideRule: the file is the base, a flag given explicitly
// overrides its field, and the CLI's own defaults stay out.
func TestConfigOverrideRule(t *testing.T) {
	const faults = "../../examples/configs/faults.json"
	base, _ := printedConfig(t, "-config", faults)
	if len(base.Faults) != 2 || base.Seed != 1 || base.Transport.MaxWindow != 3 {
		t.Fatalf("faults.json read as %+v", base)
	}
	cfg, _ := printedConfig(t, "-config", faults, "-fault", "crash@t=1,node=1", "-seed", "9", "-protocol", "vegas")
	if len(cfg.Faults) != 1 || cfg.Faults[0].Node != 1 {
		t.Errorf("an explicit -fault left Faults %+v, want only crash(node=1)", cfg.Faults)
	}
	if cfg.Seed != 9 || cfg.Transport.Name != "vegas" || cfg.Transport.MaxWindow != 3 {
		t.Errorf("-seed 9 -protocol vegas over the file gave seed %d, transport %+v", cfg.Seed, cfg.Transport)
	}
	cfg, _ = printedConfig(t, "-config="+faults, "-hops", "2")
	if cfg.Scenario.Name != "chain-2" || len(cfg.Faults) != 2 || cfg.Transport.Name != "newreno" {
		t.Errorf("-hops 2 over the file gave scenario %q, %d faults, transport %q", cfg.Scenario.Name, len(cfg.Faults), cfg.Transport.Name)
	}

	// A file that leaves Seed, TotalPackets and mobility out gets the
	// library's defaults, not the CLI's seed 1, 11 000 packets and pinned
	// endpoints.
	path := filepath.Join(t.TempDir(), "bare.json")
	if err := os.WriteFile(path, []byte(`{"Scenario":{"Nodes":[{"X":0,"Y":0},{"X":200,"Y":0}],"Flows":[{"Src":0,"Dst":1}]},"Transport":{"Name":"reno"}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, _ = printedConfig(t, "-config", path, "-mobility", "waypoint", "-vmax", "3")
	m := cfg.Scenario.Mobility
	if cfg.Seed != 0 || cfg.TotalPackets != 110000 || m.PinFlowEndpoints || m.MinSpeed != 0 || m.MaxSpeed != 3 || m.Kind != manetsim.MobilityRandomWaypoint {
		t.Errorf("bare file read with the CLI's defaults: seed %d, %d packets, mobility %+v", cfg.Seed, cfg.TotalPackets, m)
	}
}

// TestConfigFileErrors: a file that does not decode exactly into a Config
// exits 2 and says why.
func TestConfigFileErrors(t *testing.T) {
	dir := t.TempDir()
	for body, want := range map[string]string{
		`{"Seed":1,"Bandwith":2000000}`: `unknown field "Bandwith"`,
		`{"Seed":1} {"Seed":2}`:         "trailing data",
		`{"Seed":`:                      "unexpected EOF",
	} {
		path := filepath.Join(dir, "config.json")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		code, stdout, stderr := manetsimExit(t, "-config", path, "-q")
		if code != 2 || stdout != "" || !strings.Contains(stderr, want) {
			t.Errorf("-config with %s: exit %d, stdout %q, stderr %q; want 2 naming %q", body, code, stdout, stderr, want)
		}
	}
	if code, _, stderr := manetsimExit(t, "-config", filepath.Join(dir, "missing.json")); code != 2 || !strings.Contains(stderr, "missing.json") {
		t.Errorf("missing -config file: exit %d, %q", code, stderr)
	}
}

// runWithin runs cfg and fails the test if the run has not returned within
// limit: a hang shows as a failure, not as a stalled fuzzer.
func runWithin(t *testing.T, cfg manetsim.Config, limit time.Duration) (*manetsim.Result, error) {
	t.Helper()
	type outcome struct {
		res *manetsim.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := manetsim.RunConfig(context.Background(), cfg)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		return o.res, o.err
	case <-time.After(limit):
		t.Fatalf("run did not return within %v:\n%s", limit, cfg.CacheKey())
		return nil, nil
	}
}

// configuredLoss is the per-frame loss a built-in link model is configured
// for on a 200 m hop; ok is false for a model it does not know.
func configuredLoss(l manetsim.LinkModelSpec) (loss float64, ok bool) {
	switch strings.ToLower(l.Name) {
	case "", "perfect", "distance": // distance loss starts beyond TxRange (250 m)
		return 0, true
	case "uniform", "loss":
		return l.LossRate, true
	case "ber":
		return linkmodel.FrameLossFromBER(l.BER, l.FrameBits), true
	case "gilbert-elliott", "ge":
		return math.Max(l.LossGood, l.LossBad), true
	}
	return 0, false
}

// FuzzConfig decodes arbitrary bytes through decodeConfig, the -config
// path. Oracle 1: a config that decodes runs to a result or an error,
// without a panic, and returns. Oracle 2: its link model, if valid and
// configured for less than 50 % loss, delivers at least one packet on a
// fault-free 1-hop chain.
func FuzzConfig(f *testing.F) {
	files, _ := filepath.Glob("../../examples/configs/*.json")
	for _, path := range files {
		if b, err := os.ReadFile(path); err == nil {
			f.Add(b)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg, err := decodeConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Harness bounds, not validation: a config past them is valid, only
		// too big to run for every input. Negative budgets pass through to
		// validation unchanged.
		if scn := cfg.Scenario; scn != nil && (scn.NumNodes() > 24 || len(scn.Flows) > 24) || len(cfg.Faults) > 24 {
			t.Skip("larger than the harness runs")
		}
		if cfg.TotalPackets == 0 || cfg.TotalPackets > 44 {
			cfg.TotalPackets = 44
		}
		if cfg.BatchPackets == 0 || cfg.BatchPackets > 4 {
			cfg.BatchPackets = 4
		}
		if cfg.MaxSimTime == 0 || cfg.MaxSimTime > 10*time.Second {
			cfg.MaxSimTime = 10 * time.Second
		}
		runWithin(t, cfg, 10*time.Second)

		loss, ok := configuredLoss(cfg.LinkModel)
		if !ok || !(loss < 0.5) {
			return
		}
		chain := manetsim.Config{
			Scenario: manetsim.Chain(1), Transport: manetsim.TransportSpec{Name: "vegas"}, LinkModel: cfg.LinkModel,
			Seed: cfg.Seed, TotalPackets: 11, BatchPackets: 1, MaxSimTime: time.Minute,
		}
		res, err := runWithin(t, chain, 10*time.Second)
		if err == nil && res.Delivered == 0 {
			t.Errorf("link model %+v (configured loss %.3g) delivered nothing on a 1-hop chain in %v", cfg.LinkModel, loss, res.SimTime)
		}
	})
}
