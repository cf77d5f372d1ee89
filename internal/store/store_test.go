package store

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func open(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t)
	key := `{"Scenario":{"Name":"chain-2"},"Seed":1}`
	payload := json.RawMessage(`{"goodput":123.5}`)
	if _, ok := s.Get(key); ok {
		t.Fatal("hit on an empty store")
	}
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok {
		t.Fatal("miss after Put")
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %s, want %s", got, payload)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

func TestPathLayoutIsContentAddressed(t *testing.T) {
	s := open(t)
	key := "some canonical config json"
	h := Hash(key)
	want := filepath.Join(s.Dir(), h[:2], h+".json")
	if got := s.Path(sha256.Sum256([]byte(key))); got != want {
		t.Fatalf("Path = %s, want %s", got, want)
	}
	if len(h) != 64 || strings.ToLower(h) != h {
		t.Fatalf("Hash %q is not lowercase hex sha256", h)
	}
	if err := s.Put(key, json.RawMessage(`1`)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(want); err != nil {
		t.Fatalf("entry not at the content address: %v", err)
	}
}

// TestCorruptEntriesAreMisses pins the robustness contract: no on-disk
// state — however mangled — may surface as an error or a wrong hit.
func TestCorruptEntriesAreMisses(t *testing.T) {
	key := "the key"
	payload := json.RawMessage(`{"v":1}`)
	corruptions := map[string]func(t *testing.T, path string){
		"zero-length": func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"truncated": func(t *testing.T, path string) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("\x00\xffnot json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-schema-version": func(t *testing.T, path string) {
			b, _ := json.Marshal(envelope[json.RawMessage]{SchemaVersion: 99, ID: Hash(key), Result: payload})
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"wrong-id": func(t *testing.T, path string) {
			// A file whose address does not match its recorded id — what
			// a misplaced copy would look like.
			b, _ := json.Marshal(envelope[json.RawMessage]{SchemaVersion: 1, ID: Hash("another key"), Result: payload})
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty-result": func(t *testing.T, path string) {
			b, _ := json.Marshal(envelope[json.RawMessage]{SchemaVersion: 1, ID: Hash(key)})
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := open(t)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s.Path(sha256.Sum256([]byte(key))))
			if got, ok := s.Get(key); ok {
				t.Fatalf("corrupt entry served as a hit: %s", got)
			}
			// The slot stays writable: a re-run repairs it.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(key); !ok {
				t.Fatal("miss after repairing the corrupt entry")
			}
		})
	}
}

func TestMissingEntryIsMissNotError(t *testing.T) {
	s := open(t)
	if _, ok := s.Get("never stored"); ok {
		t.Fatal("hit for a key never stored")
	}
}

// TestConcurrentWritersAndReaders hammers one key and several distinct
// keys from many goroutines; under -race this doubles as the data-race
// check, and every observed hit must be a complete, valid payload.
func TestConcurrentWritersAndReaders(t *testing.T) {
	s := open(t)
	const (
		goroutines = 16
		rounds     = 25
	)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				shared := json.RawMessage(fmt.Sprintf(`{"writer":%d,"round":%d}`, g, i))
				if err := s.Put("shared-key", shared); err != nil {
					t.Errorf("Put shared: %v", err)
				}
				if raw, ok := s.Get("shared-key"); ok {
					var v struct{ Writer, Round int }
					if err := json.Unmarshal(raw, &v); err != nil {
						t.Errorf("observed a torn write: %s: %v", raw, err)
					}
				}
				own := fmt.Sprintf("key-%d", g)
				if err := s.Put(own, shared); err != nil {
					t.Errorf("Put own: %v", err)
				}
				if raw, ok := s.Get(own); !ok || string(raw) != string(shared) {
					t.Errorf("own key read back %s, want %s", raw, shared)
				}
			}
		}()
	}
	wg.Wait()
	if _, ok := s.Get("shared-key"); !ok {
		t.Fatal("shared key missing after the storm")
	}
	if got, want := s.Len(), goroutines+1; got != want {
		t.Fatalf("Len = %d, want %d", got, want)
	}
	// No temp files may survive the storm.
	filepath.WalkDir(s.Dir(), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ".tmp" {
			t.Errorf("leftover temp file %s", path)
		}
		return nil
	})
}

func TestSchemaVersionPartitionsStores(t *testing.T) {
	dir := t.TempDir()
	v1, err := Open(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Put("k", json.RawMessage(`{"old":true}`)); err != nil {
		t.Fatal(err)
	}
	v2, err := Open(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v2.Get("k"); ok {
		t.Fatal("a v2 store served a v1 envelope")
	}
	if err := v2.Put("k", json.RawMessage(`{"new":true}`)); err != nil {
		t.Fatal(err)
	}
	if raw, ok := v2.Get("k"); !ok || string(raw) != `{"new":true}` {
		t.Fatalf("v2 read back %s", raw)
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open("", 1); err == nil {
		t.Fatal("Open(\"\") succeeded")
	}
}

func TestOpenCreatesNestedDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "a", "b", "store")
	if _, err := Open(dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); err != nil {
		t.Fatal(err)
	}
}

// TestSaveLoadTyped: Load decodes the payload straight into the caller's
// type, and the file on disk is the {schemaVersion, id, result} envelope.
func TestSaveLoadTyped(t *testing.T) {
	type payload struct {
		Goodput float64
		Flows   []int
	}
	s := open(t)
	id := sha256.Sum256([]byte("typed"))
	if _, ok := Load[payload](s, id); ok {
		t.Fatal("hit on an empty store")
	}
	want := payload{Goodput: 123.5, Flows: []int{1, 2}}
	if err := s.Save(id, want); err != nil {
		t.Fatal(err)
	}
	got, ok := Load[payload](s, id)
	if !ok || got.Goodput != want.Goodput || len(got.Flows) != 2 {
		t.Fatalf("Load = %+v, %v; want %+v", got, ok, want)
	}
	b, err := os.ReadFile(s.Path(id))
	if err != nil {
		t.Fatal(err)
	}
	wantFile := `{"schemaVersion":1,"id":"` + Hash("typed") + `","result":{"Goodput":123.5,"Flows":[1,2]}}`
	if string(b) != wantFile {
		t.Fatalf("file = %s\nwant   %s", b, wantFile)
	}
}

// TestSaveRemakesMissingFanOut: a write whose fan-out directory is gone
// (never made, or removed under a running store) makes it again.
func TestSaveRemakesMissingFanOut(t *testing.T) {
	s := open(t)
	id := sha256.Sum256([]byte("k"))
	if err := s.Save(id, 1); err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(filepath.Dir(s.Path(id))); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(id, 2); err != nil {
		t.Fatal(err)
	}
	if got, ok := Load[int](s, id); !ok || *got != 2 {
		t.Fatalf("Load after remaking the fan-out = %v, %v", got, ok)
	}
}

// FuzzStoreLoad writes arbitrary bytes where an entry lives: reading them
// must never panic, and a hit must carry a payload that decodes. The seed
// corpus (testdata/fuzz/FuzzStoreLoad) holds a valid entry for key, its
// truncations and near misses, and a schema-1 envelope.
func FuzzStoreLoad(f *testing.F) {
	const key = "fuzzed key"
	f.Fuzz(func(t *testing.T, b []byte) {
		s := open(t)
		id := sha256.Sum256([]byte(key))
		path := s.Path(id)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if raw, ok := s.Get(key); ok {
			var v any
			if err := json.Unmarshal(raw, &v); err != nil || v == nil {
				t.Fatalf("hit with a payload that does not decode: %s: %v", raw, err)
			}
		}
		if v, ok := Load[map[string]any](s, id); ok && *v == nil {
			t.Fatal("typed hit with a nil payload")
		}
	})
}
