package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"runtime"
	"testing"

	"manetsim"
)

var updateGolden = flag.Bool("update-golden", false,
	"print current figure digests instead of comparing (paste into goldenFigureHashes)")

// goldenFigureHashes pins the byte-exact output of the experiments that
// exercise the widest slice of the stack (static chains for tcpvariants,
// random-waypoint AODV repair for mobility) at BenchScale. The hashes were
// captured before the zero-allocation kernel rewrite; any change here means
// a run is no longer reproducing the same simulation, which is a
// correctness regression, not a formatting nit.
//
// Regenerate (only after an intentional behavior change) with:
//
//	go test ./internal/exp -run TestGoldenFigures -v -update-golden
var goldenFigureHashes = map[string]string{
	"tcpvariants": "7827fcfcc0ac55c8ae7554b1ce38c663b485f906edf484efddab4f3f1cc767d0",
	"mobility":    "abde1198f1c7fbee787875e619e5e699221ce468e690fa2ebc0b603d9f607a0f",
	"transports":  "7cffe7a9699cb8430b54516307f300064a2645146de092400e73df000705de24",
	// ccextensions pins the Westwood+ and adaptive-pacing variants (and
	// name-based registry resolution) from the moment they shipped.
	"ccextensions": "4909cbde9d1a9dbdad42436825b237de9b799a2d7eab2bdf9f006dd9383dd540",
	// lossy pins the link-impairment subsystem: the seeded per-link RNG
	// streams, the uniform loss model and the Reno/Westwood+ separation
	// under random loss, from the moment they shipped.
	"lossy": "865f415ac177f76413017ba9d049ca31b677afd73d2d537f4b93bd68415d98ec",
	// chaos pins the fault-injection subsystem: scheduled node-crash,
	// blackout and partition transitions, the resilience metrics, and
	// the byte-determinism of faulted runs, from the moment they shipped.
	"chaos": "78ac74fef6d3361a8f84a006eefd0d92ce2dca453f4885ec3f4f5091f8d73fa2",
}

// figureDigest canonicalizes a figure through JSON (struct-ordered, no
// maps) and hashes it.
func figureDigest(t *testing.T, id string) string {
	t.Helper()
	runner, ok := Lookup(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	fig, err := runner(manetsim.NewCampaign(manetsim.BenchScale))
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	b, err := json.Marshal(fig)
	if err != nil {
		t.Fatalf("%s: encode: %v", id, err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestGoldenFigures asserts fixed-seed runs stay byte-identical across
// kernel changes: same batches, same goodput, same route-failure counts,
// for both the static and the mobile experiment.
func TestGoldenFigures(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The committed hashes are amd64 floats; other architectures may
		// legally fuse multiply-adds and shift the last mantissa bits.
		t.Skipf("golden hashes are pinned for amd64, running on %s", runtime.GOARCH)
	}
	for id, want := range goldenFigureHashes {
		id, want := id, want
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got := figureDigest(t, id)
			if *updateGolden {
				t.Logf("%q: %q,", id, got)
				return
			}
			if got != want {
				t.Errorf("%s digest = %s, want %s (fixed-seed output changed)", id, got, want)
			}
		})
	}
}
