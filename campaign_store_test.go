package manetsim

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"manetsim/internal/store"
)

// TestStoreHitMarshalsLikeFreshRun: a result served from the store carries
// the config the run recorded, defaults included, so it encodes byte for
// byte like the fresh run — here for a config that leaves Bandwidth,
// WarmupBatches, MaxSimTime and Transport.Alpha to their defaults, on the
// single-config path and the sweep path alike.
func TestStoreHitMarshalsLikeFreshRun(t *testing.T) {
	ctx := context.Background()
	cfg := Config{Scenario: Chain(3), Transport: TransportSpec{Name: "vegas"}, TotalPackets: 550, BatchPackets: 50}
	sw := Sweep{Scenarios: []*Scenario{Chain(2)}, Transports: []TransportSpec{{Name: "vegas"}}, Seeds: []int64{1, 2},
		Base: Config{TotalPackets: 550, BatchPackets: 50}}
	dir := t.TempDir()
	encode := func(c *Campaign) []byte {
		t.Helper()
		res, err := c.Run(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		cells, err := c.Sweep(ctx, sw)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(struct {
			Run   *Result
			Cells []Cell
		}{res, cells})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fresh := NewCampaign(BenchScale, WithStore(dir))
	want := encode(fresh)
	if fresh.Executed() != 3 {
		t.Fatalf("fresh campaign executed %d runs, want 3", fresh.Executed())
	}
	stored := NewCampaign(BenchScale, WithStore(dir))
	got := encode(stored)
	if stored.Executed() != 0 {
		t.Fatalf("second campaign executed %d runs, want 0 (all store hits)", stored.Executed())
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("store hits encode differently from fresh runs:\n%s\nwant\n%s", got, want)
	}
}

// schemaOneEntry is the file a schema-1 store held for a run: the key
// string beside the whole Result, Config included.
func schemaOneEntry(t *testing.T, key string, res *Result) []byte {
	t.Helper()
	b, err := json.Marshal(struct {
		SchemaVersion int     `json:"schemaVersion"`
		Key           string  `json:"key"`
		Result        *Result `json:"result"`
	}{1, key, res})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOldSchemaEntryIsMiss: an entry an earlier schema wrote at the
// run's address reads as a clean miss, and the re-run repairs it. Schema 1
// is the {schemaVersion:1, key, result} envelope; schema 2 is the file the
// schema-2 encoding wrote for this very run (testdata, its run id swapped
// for today's, so only the version tells it apart).
func TestOldSchemaEntryIsMiss(t *testing.T) {
	ctx := context.Background()
	cfg := benchChainCfg(2)
	plain := NewCampaign(BenchScale)
	res, err := plain.Run(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	key := plain.canonical(cfg).CacheKey()
	id := sha256.Sum256([]byte(key))
	schemaTwo, err := os.ReadFile("testdata/store_schema2_entry.json")
	if err != nil {
		t.Fatal(err)
	}
	// The run id the schema-2 encoding gave this run.
	const schemaTwoID = "4a1c25dda7878ddccb18dd3f8b6d41754502e338faeec5ace6fda3da9e9b89b0"
	for _, tc := range []struct {
		name  string
		entry []byte
	}{
		{"schema 1", schemaOneEntry(t, key, res)},
		{"schema 2", bytes.Replace(schemaTwo, []byte(schemaTwoID), []byte(hex.EncodeToString(id[:])), 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, err := store.Open(dir, ResultSchemaVersion)
			if err != nil {
				t.Fatal(err)
			}
			path := st.Path(id)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.entry, 0o644); err != nil {
				t.Fatal(err)
			}

			first := NewCampaign(BenchScale, WithStore(dir))
			if _, err := first.Run(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			if first.Executed() != 1 || first.StoreWriteErrors() != 0 {
				t.Fatalf("over a %s entry: executed %d, write errors %d; want 1 run, 0 errors", tc.name, first.Executed(), first.StoreWriteErrors())
			}
			again := NewCampaign(BenchScale, WithStore(dir))
			if _, err := again.Run(ctx, cfg); err != nil {
				t.Fatal(err)
			}
			if again.Executed() != 0 {
				t.Fatalf("after the repair: executed %d, want 0 (a store hit)", again.Executed())
			}
			if _, ok := store.Load[json.RawMessage](st, id); !ok {
				t.Fatal("the re-run left no current entry at the run's address")
			}
		})
	}
}

// TestStoredRunBytes prints the bytes one stored run takes, against the
// schema-1 layout (the key string beside a Result carrying its Config),
// for BenchScale runs on Chain(4) and on a 210-node static-routed grid.
// Run it with -v to read the numbers.
func TestStoredRunBytes(t *testing.T) {
	grid := NewScenario("grid-15x14").WithRouting(RoutingStatic)
	for row := 0; row < 14; row++ {
		for col := 0; col < 15; col++ {
			grid.AddNode(float64(col)*200, float64(row)*200)
		}
	}
	grid.AddFlow(0, 2)
	for _, tc := range []struct {
		scn      *Scenario
		maxShare float64 // of the schema-1 bytes
	}{
		{Chain(4), 0.75},
		{grid, 0.30},
	} {
		dir := t.TempDir()
		c := NewCampaign(BenchScale, WithStore(dir))
		cfg := c.canonical(Config{Scenario: tc.scn, Transport: TransportSpec{Name: "vegas"}})
		res, err := c.Run(context.Background(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		key := cfg.CacheKey()
		st, err := store.Open(dir, ResultSchemaVersion)
		if err != nil {
			t.Fatal(err)
		}
		info, err := os.Stat(st.Path(sha256.Sum256([]byte(key))))
		if err != nil {
			t.Fatal(err)
		}
		old := schemaOneEntry(t, key, res)
		share := float64(info.Size()) / float64(len(old))
		t.Logf("%s (%d nodes): %d bytes per stored run, schema 1 took %d (%.0f%% less)",
			tc.scn.Name, tc.scn.NumNodes(), info.Size(), len(old), 100*(1-share))
		if share > tc.maxShare {
			t.Errorf("%s: stored run is %.2f of its schema-1 size, want at most %.2f", tc.scn.Name, share, tc.maxShare)
		}
	}
}
