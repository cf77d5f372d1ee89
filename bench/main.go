// Command bench is the repository's benchmark: four workloads that drive the
// simulator through its public API, eight end-to-end metrics measured with
// tracing off, and a traced pass that attributes the time to layers from
// outside the program. BENCHMARK.json at the repository root is its
// contract; README.md beside this file explains every choice.
//
//	bash bench/run.sh -workload chain_tcp -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -out A.json            # every workload, untraced then traced
//	bash bench/run.sh -compare A.json B.json
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

const (
	minRepetitions = 3 // a median needs them, however slow the host
	setupRuns      = 5 // set-up is repeated and its median reported
)

// value is one metric as reported. Raw holds what the value is the median
// of: one entry per repetition (per set-up for setup_s).
type value struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Raw   []float64 `json:"raw,omitempty"`
}

// record is everything one run of one workload reported.
type record struct {
	Digest      string           `json:"sim_digest"`
	Correct     bool             `json:"correct"`
	Attempted   int              `json:"attempted"`
	Failed      int              `json:"failed"`
	Repetitions int              `json:"repetitions"`
	ColdJobs    int              `json:"cold_jobs,omitempty"` // latency samples behind job_ms_*, all repetitions
	WarmJobs    int              `json:"warm_jobs,omitempty"` // and behind warm_job_ms_p50
	Errors      []string         `json:"errors,omitempty"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    map[string]value `json:"per_layer,omitempty"`
}

// values is what the pass that made the record measured: the end-to-end
// metrics of an untraced pass, the per-layer metrics of a traced one.
func (r *record) values() map[string]value {
	if r.EndToEnd != nil {
		return r.EndToEnd
	}
	return r.PerLayer
}

// environment is recorded beside the numbers so that two result files can
// be told apart by more than their values.
type environment struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

type resultFile struct {
	Env       environment        `json:"env"`
	Workloads map[string]*record `json:"workloads"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "run this workload only (default: all of them, untraced then traced, each in its own process)")
	seed := fs.Int64("seed", 1, "shifts every seed the inputs are generated from")
	seconds := fs.Float64("seconds", 20, "measuring time per workload")
	trace := fs.Int("trace", 0, "with -workload: 0 measures the end-to-end metrics, 1 the per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the recorded spans to this file")
	out := fs.String("out", "", "write the results, raw values included, to this file")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	scratch, err := os.MkdirTemp("", "bench-") // under TMPDIR, which run.sh points into the checkout
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: scratch directory: %v\n", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	file := &resultFile{Workloads: map[string]*record{}}

	code := 0
	if *name == "" {
		code = runAll(file, *seed, *seconds, scratch, *traceOut)
	} else {
		w, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		var rec *record
		var catalogue []metric
		if *trace == 0 {
			rec, err = measure(w, *seed, full, *seconds, scratch)
			catalogue = endToEnd
		} else {
			rec, err = traced(w, *seed, full, *seconds, scratch, *traceOut)
			catalogue = perLayer()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		file.Workloads[w.name] = rec
		report(stdout, w.name, rec, catalogue)
		printResultLine(stdout, rec)
		if !rec.Correct {
			code = 1
		}
	}
	if *out != "" {
		file.Env = hostEnvironment(*seed, *seconds)
		if err := writeJSON(*out, file); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	return code
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure is the untraced pass: set the workload up, repeat its work until
// the measuring time is used up, and report medians across the repetitions.
// Set-up is timed setupRuns times, once before the repetitions and the rest
// after them: a host that has sat idle runs everything, parallel set-up
// above all, at half speed for the first second of a process, and five
// set-ups in a row would all fall into it.
func measure(w workload, seed int64, sz sizes, seconds float64, scratch string) (*record, error) {
	var setupS []float64
	setup := func() (instance, error) {
		t0 := time.Now()
		inst, err := w.setup(seed, sz, scratch)
		setupS = append(setupS, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		return inst, nil
	}
	inst, err := setup()
	if err != nil {
		return nil, err
	}

	var reps []repetition
	budget := time.Duration(seconds * float64(time.Second))
	for start := time.Now(); ; {
		reps = append(reps, inst.repeat(nil))
		elapsed := time.Since(start)
		// Stop when one more repetition would overrun the measuring time.
		if len(reps) >= minRepetitions && elapsed+elapsed/time.Duration(len(reps)) > budget {
			break
		}
	}

	rec := newRecord(reps)
	var pkts, runs, allocs, p50, p90, warm []float64
	for _, r := range reps {
		s := r.wall.Seconds()
		pkts = append(pkts, float64(r.packets)/s)
		runs = append(runs, float64(r.runs)/s)
		allocs = append(allocs, float64(r.mallocs)/float64(r.ops))
		p50 = append(p50, median(r.jobMs))
		p90 = append(p90, percentile(r.jobMs, 90))
		rec.ColdJobs += len(r.jobMs)
		rec.WarmJobs += len(r.warmMs)
		if len(r.warmMs) > 0 {
			warm = append(warm, median(r.warmMs))
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	for len(setupS) < setupRuns {
		if _, err := setup(); err != nil {
			return nil, err
		}
	}
	raws := map[string][]float64{
		"setup_s": setupS, "sim_pkts_per_s": pkts, "replicates_per_s": runs,
		"job_ms_p50": p50, "job_ms_p90": p90, "warm_job_ms_p50": warm,
		"allocs_per_op": allocs, "peak_rss_mb": {rss},
	}
	rec.EndToEnd = make(map[string]value)
	for _, m := range endToEnd {
		v := value{Value: median(raws[m.Name]), Unit: m.Unit, Raw: raws[m.Name]}
		if !(v.Value > 0) || math.IsInf(v.Value, 0) {
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s = %v: not a positive finite number", m.Name, v.Value))
		}
		rec.EndToEnd[m.Name] = v
	}
	rec.Correct = len(rec.Errors) == 0
	return rec, nil
}

// newRecord folds the output checks of a set of repetitions: every one must
// yield the same digest, no operation may fail, and no check inside a
// repetition may have tripped.
func newRecord(reps []repetition) *record {
	rec := &record{Digest: reps[0].digest, Repetitions: len(reps)}
	for i, r := range reps {
		rec.Attempted += r.attempted
		rec.Failed += r.failed
		for _, e := range r.errs {
			rec.Errors = append(rec.Errors, fmt.Sprintf("repetition %d: %s", i, e))
		}
		if r.digest != rec.Digest {
			rec.Errors = append(rec.Errors, fmt.Sprintf("repetition %d: sim_digest %s differs from repetition 0's %s", i, r.digest, rec.Digest))
		}
	}
	if rec.Failed > 0 {
		rec.Errors = append(rec.Errors, fmt.Sprintf("%d of %d operations failed", rec.Failed, rec.Attempted))
	}
	if rec.Attempted == 0 {
		rec.Errors = append(rec.Errors, "no operation was attempted")
	}
	rec.Correct = len(rec.Errors) == 0
	return rec
}

// traced is the per-layer pass: one repetition untraced, the same one again
// under spans and a CPU profile (cold and warm phase profiled apart), then
// the microdrivers.
func traced(w workload, seed int64, sz sizes, seconds float64, scratch, traceOut string) (*record, error) {
	inst, err := w.setup(seed, sz, scratch)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	t0 := time.Now()
	plain := inst.repeat(nil)
	plainWall := time.Since(t0)

	var cold, warm bytes.Buffer
	var profErr error
	tr := newTracer()
	tr.rep = 1
	tr.onPhase = func(phase string) {
		pprof.StopCPUProfile()
		if phase == "warm" {
			profErr = pprof.StartCPUProfile(&warm)
		}
	}
	if err := pprof.StartCPUProfile(&cold); err != nil {
		return nil, err
	}
	t0 = time.Now()
	seen := inst.repeat(tr)
	seenWall := time.Since(t0)
	pprof.StopCPUProfile() // a no-op when the repetition reported its end
	if profErr != nil {
		return nil, profErr
	}

	rec := newRecord([]repetition{plain, seen})
	vals := make(map[string]float64)
	// share files a phase's profile under <layer><suffix> for the given
	// layers. A profile without samples fails the checks, not the run.
	share := func(phase string, profile []byte, of []string, suffix string) error {
		shares, n, err := cpuShares(profile)
		if errors.Is(err, errNoSamples) {
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s phase: %v", phase, err))
			return nil
		}
		if err != nil {
			return fmt.Errorf("%s-phase profile: %w", phase, err)
		}
		fmt.Fprintf(os.Stderr, "bench: %s: %s-phase profile holds %d samples\n", w.name, phase, n)
		for _, l := range of {
			vals[l+suffix] = shares[l]
		}
		return nil
	}
	if err := share("cold", cold.Bytes(), layers, ".cpu_share"); err != nil {
		return nil, err
	}
	if warm.Len() > 0 {
		if err := share("warm", warm.Bytes(), warmShareLayers, ".warm_cpu_share"); err != nil {
			return nil, err
		}
	}

	self := tr.selfMs()
	for _, s := range []string{"submit", "first_event", "stream", "results"} {
		vals["server."+s+"_ms"] = mean(self[s])
		vals["server.warm_"+s+"_ms"] = mean(self[s+"_warm"])
	}
	vals["server.results_bytes"] = mean(tr.bytesOf("results"))
	st, n64 := seen.stats, float64(max(seen.stats.runs, 1))
	vals["sim.simulated_s"] = st.simTime.Seconds()
	vals["sim.sim_s_per_wall_s"] = st.simTime.Seconds() / plain.wall.Seconds()
	vals["tcp.goodput_kbps"] = st.goodput / n64 / 1e3
	vals["tcp.rtx_per_pkt"] = st.rtx / n64
	vals["tcp.avg_window"] = st.window / n64
	vals["mac.drop_prob"] = st.drop / n64
	vals["aodv.route_failures_false"] = float64(st.falseRF)
	vals["aodv.route_failures_true"] = float64(st.trueRF)
	vals["phy.impaired_frames"] = float64(st.impaired)
	vals["fault.frames_cut"] = float64(st.cut)
	if st.heals > 0 {
		vals["fault.recover_after_heal_ms"] = st.healMs / float64(st.heals)
	}
	vals["bench.trace_overhead_pct"] = 100 * (seenWall.Seconds() - plainWall.Seconds()) / plainWall.Seconds()

	// The microdrivers share out a quarter of the measuring time.
	budget := time.Duration(seconds / 4 / float64(len(microMetrics)) * float64(time.Second))
	mic := runMicrodrivers(max(budget, 2*time.Millisecond), scratch)
	for k, v := range mic.values {
		vals[k] = v
	}
	rec.Errors = append(rec.Errors, mic.errs...)

	rec.PerLayer = make(map[string]value)
	for _, m := range perLayer() {
		v := vals[m.Name] // a layer the workload bypasses reads 0
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rec.Errors = append(rec.Errors, fmt.Sprintf("%s = %v: not a finite number", m.Name, v))
		}
		rec.PerLayer[m.Name] = value{Value: v, Unit: m.Unit}
	}
	rec.Correct = len(rec.Errors) == 0
	if traceOut != "" {
		if err := tr.writeFile(traceOut); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// runAll is the one command that prints everything: each workload untraced,
// then each workload traced. Every run is a child process of its own, so
// that peak memory is the workload's and not the sum of those before it.
func runAll(file *resultFile, seed int64, seconds float64, scratch, traceOut string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	code := 0
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			part := filepath.Join(scratch, fmt.Sprintf("%s-%d.json", w.name, trace))
			args := []string{
				"-workload", w.name, "-trace", fmt.Sprint(trace), "-out", part,
				"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
			}
			if trace == 1 && traceOut != "" {
				ext := filepath.Ext(traceOut)
				args = append(args, "-trace-out", strings.TrimSuffix(traceOut, ext)+"."+w.name+ext)
			}
			cmd := exec.Command(exe, args...)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d): %v\n", w.name, trace, err)
				code = 1
			}
			var got resultFile
			if err := readJSON(part, &got); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s (trace %d) left no results: %v\n", w.name, trace, err)
				code = 1
				continue
			}
			rec := got.Workloads[w.name]
			if have := file.Workloads[w.name]; have == nil {
				file.Workloads[w.name] = rec
			} else {
				have.PerLayer = rec.PerLayer
				have.Errors = append(have.Errors, rec.Errors...)
				have.Correct = have.Correct && rec.Correct
				if rec.Digest != have.Digest {
					fmt.Fprintf(os.Stderr, "bench: %s: the traced pass's sim_digest %s differs from the untraced pass's %s\n", w.name, rec.Digest, have.Digest)
					have.Correct = false
					code = 1
				}
			}
		}
	}
	return code
}

// report prints one workload's numbers by name, with units.
func report(w io.Writer, name string, rec *record, catalogue []metric) {
	fmt.Fprintf(w, "workload %s: %d repetitions, ops %d, failed_ops %d\n", name, rec.Repetitions, rec.Attempted, rec.Failed)
	fmt.Fprintf(w, "  sim_digest %s\n", rec.Digest)
	vals := rec.values()
	for _, m := range catalogue {
		v := vals[m.Name]
		fmt.Fprintf(w, "  %-32s %14.6g %s", m.Name, v.Value, v.Unit)
		if len(v.Raw) > 1 {
			fmt.Fprintf(w, "   (median of %d, quartile spread %.1f%%)", len(v.Raw), 100*quartileSpread(v.Raw))
		}
		fmt.Fprintln(w)
	}
	if rec.ColdJobs > 0 {
		fmt.Fprintf(w, "  latencies rest on %d cold and %d warm jobs; the highest percentile with ten cold jobs beyond it is p%d\n",
			rec.ColdJobs, rec.WarmJobs, tailPercentile(rec.ColdJobs))
	}
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", e)
	}
	fmt.Fprintln(w, "  the model is unvalidated beyond the repository's own tests (no paper reference numbers are held in-tree), so no accuracy figure is given")
}

// printResultLine writes the machine-readable last line.
func printResultLine(w io.Writer, rec *record) {
	type reading struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool               `json:"correct"`
		Attempted int                `json:"attempted"`
		Failed    int                `json:"failed"`
		Metrics   map[string]reading `json:"metrics"`
	}{rec.Correct, rec.Attempted, rec.Failed, make(map[string]reading)}
	for k, v := range rec.values() {
		line.Metrics[k] = reading{v.Value, v.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(fmt.Sprintf("bench: encoding the result line: %v", err)) // finite numbers only, checked above
	}
	fmt.Fprintf(w, "%s\n", b)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak_rss_mb: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("peak_rss_mb: parsing %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak_rss_mb: no VmHWM line in /proc/self/status")
}

func hostEnvironment(seed int64, seconds float64) environment {
	env := environment{
		Commit: "unknown", Go: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPU: "unknown", Seed: seed, Seconds: seconds,
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
