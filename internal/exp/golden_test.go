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

// allExperimentDigests pins every registered experiment at digestScale:
// one SHA-256 per id over the JSON-encoded figure, as figureDigest hashes
// it, so a mismatch names the figure. The hashes were captured with the
// runners called one after another on one campaign.
//
// Regenerate (only after an intentional behavior change) with:
//
//	go test ./internal/exp -run TestAllExperimentsDigest -v -update-golden
var allExperimentDigests = map[string]string{
	"ablation":     "997d11daa3c122bc2014581b2d265f3e8fd59b5b3e1a8660249f7624b807cbd3",
	"ccextensions": "48151407bf33f48a7130b29b117a9c98a3dd4b3585a0626208d4018bd9be2a1d",
	"chaos":        "7ec4b03cff54811d806896a9eee523230bae97d91b4ae45febc8e0f2f5655191",
	"coexist":      "1f8d7d252311cab0ca2468da6d576e4864c7bc20adc730d42664e139489b2189",
	"energy":       "c9adde9247fe65cdcbae667ff732c462ab21cd3b9e83876d545f5c4a87556ec0",
	"fig10":        "67050f111d3b52925c1c964caac41ab61237e3ef7c7815d67ed50cc0aa25c47f",
	"fig11":        "b1b54a13c926a81d837bd180363499e9f15fe84e6e2d49dab40d1694d1bb3dca",
	"fig12":        "cc78b8263c8b8486ca832c9866c6fd6b42df978f4ddeb72a90349b2d66c5aa19",
	"fig13":        "0085b076abfeefa1b9b3a40b04b0d732d9eeb20d74cf9fcf21c59a4fdd0f93cf",
	"fig14":        "d1ed9b5446f276a9a44512f4aea3481b6b3c759a00a488b0660f1bbaab8fdc9b",
	"fig16":        "164aa39981918258d5486dc03a475ce45e4c42cabe590e588f8f5f379ccd9662",
	"fig17":        "8ff99c352dfbf4783520a9a767aa94cc962563253019dc89984a878eb25ab450",
	"fig18":        "fffa4ca41f04437b18b7a561e5617917f58cc60bd97b22103974641213c16215",
	"fig19":        "1594e7b0a53b19088fbd406cb016b4ee9bab87fd6e86853a5b112db6094ff1d4",
	"fig2":         "f2cabd65037fff1e55ed2be418dd182074e88c02cdb0998ecd24eb698ae7d17f",
	"fig3":         "5a7439f274ebf326fe01bf929491530bf83e8181115bd40779f2239cc86c8562",
	"fig4":         "db8421a3940076286d38bbcdde3bd87d3dc75f2e18f9dc3c6590bae80eee2e95",
	"fig5":         "a4cf0500a1a7610ae1ac24f97b775f0f386f1a8a974da6c7caf332c6fb722a56",
	"fig6":         "8022e4edd57de534e0335a96476982a1b9f8b93d9caf78394f6bf7d7098622a1",
	"fig7":         "e50b46e2b4bc4e2b26d8ef6345009706eb77733253f8cb7e87d638325c0731c6",
	"fig8":         "4a1e9bae8e22c120413eb12da1be47c90eb56c2804393cbba2301c22468021ce",
	"fig9":         "18b5b99cff34a52802136f89e897b3112a34a4181a65813d082611f78e98a9e3",
	"latency":      "cff0ba26a735c20a59ce44c51caa215775b0a259942bffe9c9c0372272e01a03",
	"lossy":        "3210dbb0c3950831fffe2b87bd4f15471a3cb410287b85e2caa70cbe778bd67a",
	"mobility":     "19b0ba8ea8240a13ef17b3f980f5a53693348ea60640f429dbfac441f00a85fb",
	"optwindow":    "975ef4fbc0a666b9a137e71c5802d86260c62cca9543030deced512a2f808e4c",
	"table2":       "bd903f95d9647f942847d7cacb2f5719a2fb75fffc53e2cebb030779436fa528",
	"table3":       "a33d4e85dafaf056924cea671c408a4b57c341bfc4174e461cbff4c66e5e84ed",
	"table4":       "cb8369f521a2fbc23aa1b5a1de3240fa02931cdd4e468e780bacf26f1b9942bc",
	"tcpvariants":  "4c48c39dd4e508536b7cfab05d4ed1747199aa25d58f37ef17eae00149574f75",
	"transports":   "6a19997653c99b47f15a302e787b9eaea3ef15d47d1180d3c130fa74db739491",
}

// digestScale keeps the all-experiment pass to seconds while every run
// still closes ten measured batches.
var digestScale = manetsim.Scale{TotalPackets: 550, BatchPackets: 50, Seed: 1}

// TestAllExperimentsDigest runs every registered experiment at once on one
// campaign through Run, the path paperexp takes, and compares each
// figure's digest with the pinned one: running the figures together must
// not change a byte of any of them.
func TestAllExperimentsDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden hashes are pinned for amd64, running on %s", runtime.GOARCH)
	}
	ids := IDs()
	var got []string
	err := Run(manetsim.NewCampaign(digestScale), ids, func(f *Figure) error {
		b, err := json.Marshal(f)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		got = append(got, hex.EncodeToString(sum[:]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(allExperimentDigests) != len(ids) {
		t.Errorf("%d pinned digests for %d registered experiments", len(allExperimentDigests), len(ids))
	}
	for i, id := range ids {
		if *updateGolden {
			t.Logf("%q: %q,", id, got[i])
			continue
		}
		if want := allExperimentDigests[id]; got[i] != want {
			t.Errorf("%s digest = %s, want %s (fixed-seed output changed)", id, got[i], want)
		}
	}
}
