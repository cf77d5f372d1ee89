package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"manetsim"
)

// faultFlags is the repeatable -fault flag: each occurrence parses one
// fault spec, so a full chaos schedule composes on the command line:
//
//	manetsim -fault crash@t=30,node=3 -fault blackout@t=60,from=1,to=2,d=5s
//
// When dst is set, every Set stores the specs given so far there, so the
// first explicit -fault replaces whatever list dst held.
type faultFlags struct {
	specs []manetsim.FaultSpec
	dst   *[]manetsim.FaultSpec
}

func (f *faultFlags) String() string {
	labels := make([]string, len(f.specs))
	for i, s := range f.specs {
		labels[i] = s.Label()
	}
	return strings.Join(labels, " ")
}

func (f *faultFlags) Set(s string) error {
	spec, err := parseFaultSpec(s)
	if err != nil {
		return err
	}
	f.specs = append(f.specs, spec)
	if f.dst != nil {
		*f.dst = f.specs
	}
	return nil
}

// parseFaultSpec parses one -fault value: a registered fault name,
// optionally followed by @key=value pairs separated by commas.
//
//	crash@t=30,node=3,d=5s
//	blackout@t=1m,from=1,to=2,dir=uni
//	partition@t=45s,d=10s,cut=500
//	partition@t=45s,nodes=0+1+2
//
// Times accept Go duration syntax (30s, 1m30s) or bare numbers, read as
// seconds. Omitted durations mean permanent; structural validation
// (node bounds, axis names) stays with Config.Validate so the CLI and
// the HTTP API reject specs identically.
func parseFaultSpec(s string) (manetsim.FaultSpec, error) {
	var spec manetsim.FaultSpec
	name, rest, hasArgs := strings.Cut(s, "@")
	spec.Name = strings.ToLower(strings.TrimSpace(name))
	if spec.Name == "" {
		return spec, fmt.Errorf("-fault %q: empty fault name", s)
	}
	// Mirror the BlackoutFault helper: links sever both ways unless the
	// spec asks for a one-way cut.
	spec.Bidirectional = true
	if !hasArgs {
		return spec, nil
	}
	for _, kv := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return spec, fmt.Errorf("-fault %q: %q is not key=value", s, kv)
		}
		key = strings.ToLower(strings.TrimSpace(key))
		val = strings.TrimSpace(val)
		var err error
		switch key {
		case "t", "at":
			spec.At, err = parseSeconds(val)
		case "d", "dur", "duration", "for":
			spec.Duration, err = parseSeconds(val)
		case "node", "n":
			spec.Node, err = strconv.Atoi(val)
		case "from":
			spec.From, err = strconv.Atoi(val)
		case "to":
			spec.To, err = strconv.Atoi(val)
		case "dir":
			switch strings.ToLower(val) {
			case "bi", "both":
				spec.Bidirectional = true
			case "uni", "oneway":
				spec.Bidirectional = false
			default:
				err = fmt.Errorf("dir must be bi or uni, not %q", val)
			}
		case "axis":
			spec.Axis = strings.ToLower(val)
		case "cut":
			spec.Cut, err = strconv.ParseFloat(val, 64)
			if spec.Axis == "" {
				spec.Axis = "x"
			}
		case "nodes":
			for _, n := range strings.Split(val, "+") {
				id, aerr := strconv.Atoi(strings.TrimSpace(n))
				if aerr != nil {
					err = fmt.Errorf("nodes must be +-separated ids, not %q", val)
					break
				}
				spec.NodesA = append(spec.NodesA, id)
			}
		default:
			return spec, fmt.Errorf("-fault %q: unknown key %q (t, d, node, from, to, dir, axis, cut, nodes)", s, key)
		}
		if err != nil {
			return spec, fmt.Errorf("-fault %q: %s: %v", s, key, err)
		}
	}
	return spec, nil
}

// parseSeconds reads a duration flag value: Go duration syntax first,
// then a bare number of seconds (crash@t=30 means thirty seconds).
func parseSeconds(val string) (time.Duration, error) {
	if d, err := time.ParseDuration(val); err == nil {
		return d, nil
	}
	secs, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return 0, fmt.Errorf("%q is neither a duration nor seconds", val)
	}
	// NaN fails both comparisons; ±Inf and anything past ±292 years would
	// wrap in the conversion.
	ns := secs * float64(time.Second)
	if !(ns >= math.MinInt64 && ns < math.MaxInt64) {
		return 0, fmt.Errorf("%q seconds is not a finite duration within ±%v", val, time.Duration(math.MaxInt64))
	}
	return time.Duration(ns), nil
}
