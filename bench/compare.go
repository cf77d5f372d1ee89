package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec reads BENCHMARK.json from the working directory (the repository
// root, where run.sh starts the program) or from its parent (bench/, where
// go test runs).
func loadSpec() (*benchSpec, error) {
	var err error
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		var b []byte
		if b, err = os.ReadFile(path); err != nil {
			continue
		}
		spec := new(benchSpec)
		if err := json.Unmarshal(b, spec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return spec, nil
	}
	return nil, err
}

// worsening is the fraction of the base reading a by which b is worse.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// verdict judges b against the base a for one metric on one workload:
// "regressed" when b is worse by more than the bound, "unresolved" when the
// spread between repetitions of either side is wider than the bound (unless
// every repetition of b beats every repetition of a), otherwise "ok".
func verdict(m specMetric, a, b value) string {
	if spread := max(quartileSpread(a.Raw), quartileSpread(b.Raw)); spread > m.Bound {
		for _, x := range b.Raw {
			for _, y := range a.Raw {
				if worsening(m.Better, y, x) >= 0 {
					return "unresolved"
				}
			}
		}
		return "ok"
	}
	if worsening(m.Better, a.Value, b.Value) > m.Bound {
		return "regressed"
	}
	return "ok"
}

// compareFiles prints, for every end-to-end metric on every workload, B
// against the base A, and whether the outputs of the two agree. It returns
// a non-zero code when anything regressed or disagreed.
func compareFiles(w io.Writer, pathA, pathB string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	var a, b resultFile
	for path, f := range map[string]*resultFile{pathA: &a, pathB: &b} {
		if err := readJSON(path, f); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	}
	fmt.Fprintf(w, "base A: %s  commit %s  seed %d  %s  GOMAXPROCS %d of %d  %s\n", pathA, a.Env.Commit, a.Env.Seed, a.Env.Go, a.Env.GOMAXPROCS, a.Env.NProc, a.Env.CPU)
	fmt.Fprintf(w, "     B: %s  commit %s  seed %d  %s  GOMAXPROCS %d of %d  %s\n", pathB, b.Env.Commit, b.Env.Seed, b.Env.Go, b.Env.GOMAXPROCS, b.Env.NProc, b.Env.CPU)
	code := 0
	for _, wl := range spec.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil {
			fmt.Fprintf(w, "%s: missing from one of the files\n", wl.Name)
			code = 1
			continue
		}
		fmt.Fprintf(w, "%s: failed_ops %d/%d vs %d/%d\n", wl.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
		for _, m := range spec.EndToEnd {
			va, vb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			v := verdict(m, va, vb)
			if rb.Failed > ra.Failed {
				v = "regressed" // a failed operation misses every limit
			}
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "  %-18s %-10s B/A = %.4f  (A %.6g %s, B %.6g %s; %s is better, bound %.2f)\n",
				m.Name, v, vb.Value/va.Value, va.Value, va.Unit, vb.Value, vb.Unit, m.Better, m.Bound)
		}
		if a.Env.Seed != b.Env.Seed {
			fmt.Fprintf(w, "  outputs not compared: the seeds differ\n")
			continue
		}
		same := ra.Digest == rb.Digest
		for _, name := range simulatedStats {
			if ra.PerLayer != nil && rb.PerLayer != nil && ra.PerLayer[name].Value != rb.PerLayer[name].Value {
				fmt.Fprintf(w, "  %s differs: %v vs %v\n", name, ra.PerLayer[name].Value, rb.PerLayer[name].Value)
				same = false
			}
		}
		if same {
			fmt.Fprintf(w, "  sim_digest and simulated statistics identical\n")
		} else {
			fmt.Fprintf(w, "  OUTPUTS DIFFER: sim_digest %s vs %s\n", ra.Digest, rb.Digest)
			code = 1
		}
	}
	return code
}
