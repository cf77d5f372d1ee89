package main

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"manetsim"
)

func TestParseFaultSpec(t *testing.T) {
	cases := []struct {
		in   string
		want manetsim.FaultSpec
	}{
		{"crash@t=30,node=3", manetsim.FaultSpec{
			Name: "crash", At: 30 * time.Second, Node: 3, Bidirectional: true,
		}},
		{"crash@t=1m30s,node=2,d=5s", manetsim.FaultSpec{
			Name: "crash", At: 90 * time.Second, Duration: 5 * time.Second, Node: 2, Bidirectional: true,
		}},
		{"blackout@t=60,from=1,to=2,d=5s", manetsim.FaultSpec{
			Name: "blackout", At: time.Minute, Duration: 5 * time.Second,
			From: 1, To: 2, Bidirectional: true,
		}},
		{"Blackout@t=2s,from=0,to=1,dir=uni", manetsim.FaultSpec{
			Name: "blackout", At: 2 * time.Second, From: 0, To: 1,
		}},
		{"partition@t=45s,d=10s,cut=500", manetsim.FaultSpec{
			Name: "partition", At: 45 * time.Second, Duration: 10 * time.Second,
			Axis: "x", Cut: 500, Bidirectional: true,
		}},
		{"partition@t=45,axis=y,cut=250.5", manetsim.FaultSpec{
			Name: "partition", At: 45 * time.Second, Axis: "y", Cut: 250.5, Bidirectional: true,
		}},
		{"split@t=10,nodes=0+1+2", manetsim.FaultSpec{
			Name: "split", At: 10 * time.Second, NodesA: []int{0, 1, 2}, Bidirectional: true,
		}},
		{"crash", manetsim.FaultSpec{Name: "crash", Bidirectional: true}},
		// Bare seconds at the edge of time.Duration's range (9.22e9 s).
		{"crash@t=9.2e9,d=1e-300", manetsim.FaultSpec{
			Name: "crash", At: 9_200_000_000 * time.Second, Bidirectional: true,
		}},
		{"crash@t=-9.2e9", manetsim.FaultSpec{
			Name: "crash", At: -9_200_000_000 * time.Second, Bidirectional: true,
		}},
	}
	for _, tc := range cases {
		got, err := parseFaultSpec(tc.in)
		if err != nil {
			t.Errorf("parseFaultSpec(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseFaultSpec(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

func TestParseFaultSpecErrors(t *testing.T) {
	cases := []struct {
		in   string
		want string
	}{
		{"", "empty fault name"},
		{"@t=1", "empty fault name"},
		{"crash@t", "not key=value"},
		{"crash@t=soon", "neither a duration nor seconds"},
		{"crash@warp=9", "unknown key"},
		{"crash@node=one", "node"},
		{"blackout@dir=sideways", "dir must be bi or uni"},
		{"partition@nodes=0+x", "+-separated"},
		{"crash@t=1e300,node=1", `"1e300" seconds is not a finite duration`},
		{"crash@t=NaN", `"NaN" seconds is not a finite duration`},
		{"crash@t=inf", `"inf" seconds is not a finite duration`},
		{"crash@t=-Inf", `"-Inf" seconds is not a finite duration`},
		{"crash@t=1,d=9.3e9", `"9.3e9" seconds is not a finite duration`},
		{"crash@t=-9.3e9", `"-9.3e9" seconds is not a finite duration`},
	}
	for _, tc := range cases {
		_, err := parseFaultSpec(tc.in)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("parseFaultSpec(%q) err = %v, want substring %q", tc.in, err, tc.want)
		}
	}
}

// TestFaultFlagRepeats accumulates one spec per -fault occurrence.
func TestFaultFlagRepeats(t *testing.T) {
	var f faultFlags
	for _, v := range []string{"crash@t=30,node=3", "blackout@t=60,from=1,to=2"} {
		if err := f.Set(v); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.specs) != 2 {
		t.Fatalf("2 Set calls left %d specs", len(f.specs))
	}
	if s := f.String(); !strings.Contains(s, "crash(node=3)@30s") || !strings.Contains(s, "blackout(1<->2)@1m0s") {
		t.Errorf("String() = %q", s)
	}
}

// FuzzParseFaultSpec feeds the -fault grammar arbitrary text. It must never
// panic; an accepted spec has a lower-case name, and a value without a
// minus sign cannot produce a negative time: a wrapped conversion would.
func FuzzParseFaultSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := parseFaultSpec(s)
		if err != nil {
			return
		}
		if spec.Name != strings.ToLower(spec.Name) {
			t.Errorf("parseFaultSpec(%q) accepted name %q, not lower-case", s, spec.Name)
		}
		if !strings.Contains(s, "-") && (spec.At < 0 || spec.Duration < 0) {
			t.Errorf("parseFaultSpec(%q) = At %v, Duration %v: negative without a minus sign", s, spec.At, spec.Duration)
		}
	})
}
