package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCatalogueMatchesSpec holds the code's metric and workload names to
// BENCHMARK.json, and both to the limits of the benchmark contract.
func TestCatalogueMatchesSpec(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	unique := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is not a valid name", kind, n)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}

	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in code; want the same 2 to 8", n, len(workloads))
	}
	for i, w := range spec.Workloads {
		unique("workload", w.Name)
		if i < len(workloads) && workloads[i].name != w.Name {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in code", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}

	sameMetrics := func(kind string, inSpec []specMetric, inCode []metric, limit int) {
		if len(inSpec) != len(inCode) || len(inSpec) < 1 || len(inSpec) > limit {
			t.Errorf("%d %s metrics in BENCHMARK.json, %d in code; want the same 1 to %d", len(inSpec), kind, len(inCode), limit)
		}
		for i, m := range inSpec {
			unique(kind+" metric", m.Name)
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q is not a valid unit", m.Name, m.Unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
			if i < len(inCode) && (inCode[i].Name != m.Name || inCode[i].Unit != m.Unit) {
				t.Errorf("%s metric %d is %s [%s] in BENCHMARK.json and %s [%s] in code", kind, i, m.Name, m.Unit, inCode[i].Name, inCode[i].Unit)
			}
		}
	}
	sameMetrics("end-to-end", spec.EndToEnd, endToEnd, 16)
	sameMetrics("per-layer", spec.PerLayer, perLayer(), 128)

	hasSetup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower"
	}
	if !hasSetup {
		t.Error("no end-to-end metric setup_s [s], lower is better")
	}
	for _, m := range spec.PerLayer {
		if m.Bound != 0 {
			t.Errorf("%s: a per-layer metric has no bound", m.Name)
		}
	}
	for _, s := range simulatedStats {
		if !seen[s] {
			t.Errorf("simulated statistic %q is not a per-layer metric", s)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1 to 60", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}
}

// resultLine parses what printResultLine wrote for rec.
func resultLine(t *testing.T, rec *record) map[string]value {
	t.Helper()
	var buf bytes.Buffer
	printResultLine(&buf, rec)
	var line struct {
		Correct   *bool
		Attempted *int
		Failed    *int
		Metrics   map[string]value
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&line); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if line.Correct == nil || line.Attempted == nil || line.Failed == nil || line.Metrics == nil {
		t.Fatalf("result line lacks one of correct, attempted, failed, metrics")
	}
	if *line.Correct != rec.Correct || *line.Attempted != rec.Attempted || *line.Failed != rec.Failed {
		t.Errorf("result line says correct=%v attempted=%d failed=%d, record %v %d %d",
			*line.Correct, *line.Attempted, *line.Failed, rec.Correct, rec.Attempted, rec.Failed)
	}
	return line.Metrics
}

// wantMetrics checks that got holds exactly the catalogue, each value finite.
func wantMetrics(t *testing.T, got map[string]value, catalogue []metric, positive bool) {
	t.Helper()
	if len(got) != len(catalogue) {
		t.Errorf("%d metrics emitted, catalogue has %d", len(got), len(catalogue))
	}
	for _, m := range catalogue {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: not emitted", m.Name)
		case v.Unit != m.Unit:
			t.Errorf("%s: unit %q, want %q", m.Name, v.Unit, m.Unit)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || positive && v.Value <= 0:
			t.Errorf("%s = %v", m.Name, v.Value)
		}
	}
}

var toy = sizes{chainSeeds: 1, chainPackets: 220, mobileSeeds: 1, mobilePackets: 220, sweepJobs: 1, jobSeeds: 2, serveDocs: 2}

// TestSmoke drives every workload through both passes, and with the traced
// pass every microdriver, at toy size.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			dir := t.TempDir()
			plain, err := measure(w, 1, toy, 0, dir)
			if err != nil {
				t.Fatal(err)
			}
			if !plain.Correct || plain.Failed != 0 || plain.Attempted == 0 || plain.Repetitions != minRepetitions {
				t.Errorf("untraced pass: correct=%v, %d of %d operations failed, %d repetitions: %v",
					plain.Correct, plain.Failed, plain.Attempted, plain.Repetitions, plain.Errors)
			}
			wantMetrics(t, resultLine(t, plain), endToEnd, true)

			spans := filepath.Join(dir, "spans.json")
			seen, err := traced(w, 1, toy, 0, dir, spans)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range seen.Errors {
				// A toy phase can end before the profiler's first 10 ms tick.
				if !strings.Contains(e, errNoSamples.Error()) {
					t.Errorf("traced pass: %s", e)
				}
			}
			if seen.Digest != plain.Digest {
				t.Errorf("traced pass digest %s, untraced %s", seen.Digest, plain.Digest)
			}
			got := resultLine(t, seen)
			wantMetrics(t, got, perLayer(), false)
			var sum float64
			for _, l := range layers {
				sum += got[l+".cpu_share"].Value
			}
			if sum != 0 && math.Abs(sum-1) > 1e-9 {
				t.Errorf("cpu shares sum to %v", sum)
			}
			for _, m := range microMetrics {
				if got[m.Name].Value <= 0 && !strings.HasSuffix(m.Name, "_allocs") {
					t.Errorf("%s = %v: the microdriver measured nothing", m.Name, got[m.Name].Value)
				}
			}

			var recorded []span
			if err := readJSON(spans, &recorded); err != nil {
				t.Fatal(err)
			}
			if len(recorded) == 0 || recorded[0].Name != "repetition" || recorded[0].Parent != -1 {
				t.Errorf("%d spans recorded, first %+v; want a root repetition span", len(recorded), recorded)
			}
			for _, s := range recorded {
				if s.End < s.Start || s.Parent >= s.ID {
					t.Errorf("span %+v: ends before it starts or precedes its parent", s)
				}
			}
		})
	}
}

// The helpers below write just enough of pprof's profile.proto to can one.
func pbVarint(b []byte, num int, v uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3), v)
}

func pbBytes(b []byte, num int, p []byte) []byte {
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(num)<<3|2), uint64(len(p)))
	return append(b, p...)
}

func pbPacked(xs ...uint64) []byte {
	var b []byte
	for _, x := range xs {
		b = binary.AppendUvarint(b, x)
	}
	return b
}

// cannedProfile encodes one sample per stack, leaf first, with the given
// counts. The first two functions of every stack share one location, as an
// inlined call does.
func cannedProfile(t *testing.T, stacks [][]string, counts []uint64) []byte {
	t.Helper()
	strs := []string{""}
	var prof []byte
	fnID := func(name string) uint64 { // one Function per name; its id is its string's index
		for i, s := range strs[1:] {
			if s == name {
				return uint64(i + 1)
			}
		}
		strs = append(strs, name)
		id := uint64(len(strs) - 1)
		prof = pbBytes(prof, 5, pbVarint(pbVarint(nil, 1, id), 2, id))
		return id
	}
	var loc uint64
	for i, stack := range stacks {
		var locs []uint64
		for j := 0; j < len(stack); j++ {
			loc++
			body := pbBytes(pbVarint(nil, 1, loc), 4, pbVarint(nil, 1, fnID(stack[j])))
			if j == 0 && len(stack) > 1 {
				j++
				body = pbBytes(body, 4, pbVarint(nil, 1, fnID(stack[j])))
			}
			prof = pbBytes(prof, 4, body)
			locs = append(locs, loc)
		}
		sample := pbBytes(nil, 1, pbPacked(locs...))
		sample = pbBytes(sample, 2, pbPacked(counts[i], counts[i]*10_000_000))
		prof = pbBytes(prof, 2, sample)
	}
	for _, s := range strs {
		prof = pbBytes(prof, 6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(prof); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCPUSharesOnCannedProfile(t *testing.T) {
	stacks := [][]string{
		// The kernel's own work.
		{"manetsim/internal/sim.(*Scheduler).siftDown", "manetsim/internal/sim.(*Scheduler).Step", "manetsim/internal/core.(*World).Run", "manetsim.RunConfig", "main.(*runWorkload).repeat"},
		// A helper package is charged to the layer that called it.
		{"math/rand.(*Rand).Float64", "manetsim/internal/linkmodel.UniformLoss.Draw", "manetsim/internal/phy.(*Channel).deliver"},
		// geo counts towards phy.
		{"manetsim/internal/geo.Dist", "manetsim/internal/phy.(*grid).query"},
		// Allocation caused by the program is runtime's, whoever asked.
		{"runtime.mallocgc", "runtime.newobject", "manetsim/internal/aodv.(*Router).sendRREQ"},
		// Background GC has no caller.
		{"runtime.gcDrain", "runtime.gcBgMarkWorker"},
		// Encoding done for the server is json's ...
		{"reflect.Value.Field", "encoding/json.structEncoder.encode", "manetsim.writeJSON", "manetsim.(*Server).handleResults", "net/http.serverHandler.ServeHTTP"},
		// ... the same decoding done for the harness's client is not.
		{"reflect.Value.Field", "encoding/json.(*decodeState).object", "main.decodeBody", "main.(*service).job"},
		// The root package splits by receiver.
		{"manetsim.(*Server).handleSubmit", "net/http.serverHandler.ServeHTTP"},
		{"manetsim.(*Campaign).runOne", "manetsim.(*Campaign).Sweep"},
		{"syscall.Syscall", "os.(*File).Write", "manetsim/internal/store.(*Store).Put", "manetsim.(*Campaign).runOne"},
	}
	counts := []uint64{40, 10, 5, 8, 2, 6, 9, 4, 3, 13}
	shares, n, err := cpuShares(cannedProfile(t, stacks, counts))
	if err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("%d samples, want 100", n)
	}
	want := map[string]float64{
		"sim": 0.40, "linkmodel": 0.10, "phy": 0.05, "runtime": 0.10, "json": 0.06,
		"other": 0.09, "server": 0.04, "campaign": 0.03, "store": 0.13,
	}
	var sum float64
	for _, l := range layers {
		sum += shares[l]
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share %v, want %v", l, shares[l], want[l])
		}
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %v", sum)
	}

	if _, _, err := cpuShares(cannedProfile(t, nil, nil)); err != errNoSamples {
		t.Errorf("empty profile: error %v, want %v", err, errNoSamples)
	}
	if _, _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage accepted as a profile")
	}
}

func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]int{
		0: 50, 19: 50, 20: 50, 21: 52, 30: 66, 48: 79, 100: 90, 240: 95, 720: 98, 1000: 99, 100000: 99,
	} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	// The rule itself: ten samples beyond the percentile, fewer beyond the next.
	xs := make([]float64, 240)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	p := tailPercentile(len(xs))
	if beyond := 240 - int(percentile(xs, float64(p))); beyond < 10 {
		t.Errorf("p%d of 240 samples has %d beyond it", p, beyond)
	}
	if beyond := 240 - int(percentile(xs, float64(p+1))); beyond >= 10 {
		t.Errorf("p%d of 240 samples still has %d beyond it", p+1, beyond)
	}
	if got := percentile(xs, 90); got != 216 {
		t.Errorf("p90 of 1..240 = %v, want 216 (24 samples beyond)", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestQuartileSpread pins the spread to what Python's
// statistics.quantiles(xs, n=4) gives, since the driver judges with that.
func TestQuartileSpread(t *testing.T) {
	// quantiles([1,2,4,7,11,16,22,29,37,46], n=4) = [3.5, 13.5, 31.0]
	xs := []float64{46, 1, 29, 2, 22, 4, 16, 7, 11, 37}
	if got, want := quartileSpread(xs), (31.0-3.5)/13.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, want)
	}
	// quantiles([10, 11, 13], n=4) = [10.0, 11.0, 13.0]
	if got, want := quartileSpread([]float64{13, 10, 11}), 3.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread of three = %v, want %v", got, want)
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "job_ms_p50", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "sim_pkts_per_s", Unit: "1/s", Better: "higher", Bound: 0.05}
	val := func(raw ...float64) value { return value{Value: median(raw), Raw: raw} }
	for _, c := range []struct {
		name string
		m    specMetric
		a, b value
		want string
	}{
		{"within the bound", lower, val(100, 101, 102), val(105, 106, 107), "ok"},
		{"worse by more than the bound", lower, val(100, 101, 102), val(115, 116, 117), "regressed"},
		{"better", lower, val(100, 101, 102), val(50, 51, 52), "ok"},
		{"higher is better, lower reading", higher, val(1000, 1001, 1002), val(900, 901, 902), "regressed"},
		{"higher is better, higher reading", higher, val(1000, 1001, 1002), val(1100, 1101, 1102), "ok"},
		{"spread wider than the bound", lower, val(80, 100, 120, 140), val(90, 100, 110, 130), "unresolved"},
		{"wide spread, every repetition better", lower, val(80, 100, 120, 140), val(40, 50, 60, 70), "ok"},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	file := func(scale float64, digest string) string {
		f := resultFile{Env: hostEnvironment(1, 20), Workloads: map[string]*record{}}
		for _, w := range spec.Workloads {
			rec := &record{Digest: digest, Correct: true, Attempted: 10, EndToEnd: map[string]value{}}
			for _, m := range spec.EndToEnd {
				v := 100.0
				if m.Better == "lower" {
					v *= scale
				} else {
					v /= scale
				}
				rec.EndToEnd[m.Name] = value{Value: v, Unit: m.Unit, Raw: []float64{v, v, v}}
			}
			f.Workloads[w.Name] = rec
		}
		path := filepath.Join(t.TempDir(), "r.json")
		if err := writeJSON(path, &f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow, other := file(1, "d0"), file(1.01, "d0"), file(1.6, "d0"), file(1, "d1")
	var out bytes.Buffer
	if code := compareFiles(&out, base, same); code != 0 || strings.Contains(out.String(), "regressed") {
		t.Errorf("1%% apart: exit %d\n%s", code, out.String())
	}
	if n := strings.Count(out.String(), " ok "); n != len(spec.Workloads)*len(spec.EndToEnd) {
		t.Errorf("%d ok rows, want one per metric and workload:\n%s", n, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, slow); code == 0 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("60%% worse: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareFiles(&out, base, other); code == 0 || !strings.Contains(out.String(), "OUTPUTS DIFFER") {
		t.Errorf("differing digests: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, base, filepath.Join(os.TempDir(), "absent.json")); code == 0 {
		t.Error("a missing file compared clean")
	}
}
