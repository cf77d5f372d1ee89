package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository's modules plus the two cost centres that are
// not modules (runtime: GC and malloc; json: encoding/json and reflect) and
// a residual for samples no layer's code is on the stack of (the harness
// itself, idle HTTP plumbing). Every CPU sample lands in exactly one.
var layers = []string{
	"sim", "phy", "mac", "aodv", "tcp", "udp", "pkt", "node", "core",
	"linkmodel", "fault", "mobility", "store", "campaign", "server",
	"runtime", "json", "other",
}

// internalLayer maps manetsim/internal/<dir> to its layer. geo is the
// channel's position arithmetic and stats the result aggregation, so they
// count towards the layers that call them.
var internalLayer = map[string]string{
	"sim": "sim", "phy": "phy", "mac": "mac", "aodv": "aodv", "tcp": "tcp",
	"udp": "udp", "pkt": "pkt", "node": "node", "core": "core",
	"linkmodel": "linkmodel", "fault": "fault", "mobility": "mobility",
	"store": "store", "geo": "phy", "stats": "core",
}

// layerOfFunc names the layer a fully qualified Go function belongs to, or
// "" when it belongs to none (standard library helpers, the harness).
func layerOfFunc(fn string) string {
	switch {
	case strings.HasPrefix(fn, "manetsim/internal/"):
		rest := strings.TrimPrefix(fn, "manetsim/internal/")
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return internalLayer[rest[:i]]
		}
		return ""
	case strings.HasPrefix(fn, "manetsim."):
		// The root package holds three layers; split it by receiver.
		rest := strings.TrimPrefix(fn, "manetsim.")
		switch {
		case strings.HasPrefix(rest, "(*Server)"), strings.HasPrefix(rest, "(*sweepJob)"),
			strings.HasPrefix(rest, "writeJSON"), strings.HasPrefix(rest, "httpError"),
			strings.HasPrefix(rest, "validateSweep"):
			return "server"
		case strings.HasPrefix(rest, "Run"), strings.HasPrefix(rest, "With"):
			return "core"
		default:
			return "campaign"
		}
	case strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(fn, "encoding/json.") || strings.HasPrefix(fn, "reflect.") ||
		strings.HasPrefix(fn, "internal/reflectlite."):
		return "json"
	}
	return ""
}

// attribute charges one stack (leaf first) to a layer. Flat self time goes
// to the leaf's own layer; a leaf in a helper package (syscall, sort, math/rand)
// to the nearest caller that belongs to one. Runtime and json are cost
// centres rather than modules, so they keep a sample only when the program
// caused the work: the same garbage collection or decoding done for the
// harness's own code (its HTTP client decoding /results, say) is "other".
func attribute(stack []string) string {
	centre := ""
	for _, fn := range stack {
		switch l := layerOfFunc(fn); {
		case l == "runtime" || l == "json":
			if centre == "" {
				centre = l
			}
		case l != "":
			if centre != "" {
				return centre
			}
			return l
		case strings.HasPrefix(fn, "main."):
			return "other"
		}
	}
	if centre != "" {
		return centre // no caller at all: background GC workers
	}
	return "other"
}

var errNoSamples = errors.New("CPU profile holds no samples")

// cpuShares folds a gzipped pprof CPU profile into the share of samples per
// layer, and returns the number of samples the shares rest on. The shares
// sum to 1; a profile without samples is errNoSamples.
func cpuShares(profile []byte) (map[string]float64, int64, error) {
	stacks, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	var total int64
	count := make(map[string]int64)
	for _, s := range stacks {
		count[attribute(s.funcs)] += s.value
		total += s.value
	}
	if total == 0 {
		return nil, 0, errNoSamples
	}
	shares := make(map[string]float64, len(layers))
	for _, l := range layers {
		shares[l] = float64(count[l]) / float64(total)
	}
	return shares, total, nil
}

// stackSample is one profile sample: function names leaf first (inlined
// frames expanded) and the sample count.
type stackSample struct {
	funcs []string
	value int64
}

// parseProfile decodes the parts of a pprof profile.proto the attribution
// needs. The standard library writes profiles but exports no reader, and the
// module takes no dependencies, so this walks the protobuf wire format
// itself: Profile{sample=2, location=4, function=5, string_table=6}.
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile is not gzipped: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading profile: %w", err)
	}
	type rawSample struct {
		locs  []uint64
		value int64
	}
	var (
		samples  []rawSample
		locFuncs = map[uint64][]uint64{} // location id -> function ids, leaf first
		funcName = map[uint64]uint64{}   // function id -> string index
		strs     []string
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		if wire != 2 {
			return nil
		}
		switch num {
		case 2: // Sample{location_id=1, value=2}
			var s rawSample
			first := true
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wire, v, b)
				case 2:
					// The first value is the sample count; CPU profiles
					// carry nanoseconds second.
					for _, x := range appendVarints(nil, wire, v, b) {
						if first {
							s.value = int64(x)
							first = false
						}
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location{id=1, line=4{function_id=1}}
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch {
				case num == 1 && wire == 0:
					id = v
				case num == 4 && wire == 2:
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 && wire == 0 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function{id=1, name=2}
			var id, name uint64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				if wire == 0 && num == 1 {
					id = v
				} else if wire == 0 && num == 2 {
					name = v
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(samples))
	for _, s := range samples {
		st := stackSample{value: s.value}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// eachField calls fn for every field of one protobuf message: v carries a
// varint (wire type 0), b the payload of a length-delimited field (wire
// type 2). Fixed-width fields are skipped.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		switch wire {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
			if err := fn(num, wire, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(num, wire, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed or not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
