// Package store is the persistent, content-addressed result store behind
// Campaign: it maps a run id (the SHA-256 of the run's canonical cache
// key, which the caller already holds) to a stored payload on disk, so
// completed simulation results survive process restarts and are shared
// between processes pointed at the same directory.
//
// Layout and durability model:
//
//   - The on-disk address of an id is its hex encoding:
//     <dir>/<aa>/<hex id>.json, where <aa> is the first hex byte (a
//     fan-out that keeps directories small on big sweeps).
//   - Every file is a schema-versioned envelope {schemaVersion, id,
//     result} that records the hex id beside the payload, so version
//     drift and misplaced files are both detected and treated as misses.
//     A SHA-256 collision is trusted, as the in-memory cache keyed by the
//     same 32 bytes trusts it.
//   - Writes are atomic: the envelope is written to a temp file in the
//     same directory and renamed into place, so readers — including
//     concurrent readers in other processes — only ever observe complete
//     files. Concurrent writers of the same id race benignly: results
//     are deterministic per id, so last-rename-wins is value-identical.
//   - Reads never fail: a missing, truncated, corrupt, zero-length or
//     version-mismatched file is a cache miss, never an error. The store
//     is a cache; re-running the simulation is always a correct fallback.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// envelope is the on-disk frame around a stored payload. SchemaVersion
// pins the payload encoding (results written by an incompatible binary
// must be re-run, not misparsed) and ID guards against misplaced files.
type envelope[T any] struct {
	SchemaVersion int    `json:"schemaVersion"`
	ID            string `json:"id"`
	Result        T      `json:"result"`
}

// Store is a content-addressed id→payload store rooted at one
// directory. It is safe for concurrent use by multiple goroutines and
// multiple processes.
type Store struct {
	dir    string
	schema int
}

// Open roots a store at dir (created if needed) for payloads of the
// given schema version. Stored entries with any other version read as
// misses.
func Open(dir string, schema int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir, schema: schema}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Hash returns the hex SHA-256 of a key — the hex form of the key's run
// id, and a compact stable identifier for logs and URLs.
func Hash(key string) string {
	h := sha256.Sum256([]byte(key))
	return hex.EncodeToString(h[:])
}

// Path returns the file an id is stored at (whether or not it exists).
func (s *Store) Path(id [32]byte) string {
	return s.path(hex.EncodeToString(id[:]))
}

func (s *Store) path(hexID string) string {
	return filepath.Join(s.dir, hexID[:2], hexID+".json")
}

// Load decodes the payload stored under id into a new T, in one pass
// over the file. Every failure mode — absent, empty, truncated, corrupt,
// schema-mismatched or misplaced file, or a missing or null payload —
// reports a miss.
func Load[T any](s *Store, id [32]byte) (*T, bool) {
	hexID := hex.EncodeToString(id[:])
	b, err := os.ReadFile(s.path(hexID))
	if err != nil {
		return nil, false
	}
	var env envelope[*T]
	if json.Unmarshal(b, &env) != nil || env.SchemaVersion != s.schema || env.ID != hexID || env.Result == nil {
		return nil, false
	}
	return env.Result, true
}

// Save stores v, encoded as JSON, under id atomically: the envelope lands
// via a temp-file write and rename, so a concurrent Load (or a crash
// mid-write) can only observe the old state or the complete new file.
func (s *Store) Save(id [32]byte, v any) error {
	hexID := hex.EncodeToString(id[:])
	b, err := json.Marshal(envelope[any]{SchemaVersion: s.schema, ID: hexID, Result: v})
	if err != nil {
		return fmt.Errorf("store: encoding envelope: %w", err)
	}
	target := s.path(hexID)
	dir := filepath.Dir(target)
	// The temp file lives in the target's directory so the rename stays
	// within one filesystem (atomic on every POSIX filesystem). The
	// fan-out directory is made the first time a write finds it missing.
	f, err := os.CreateTemp(dir, ".put-*.tmp")
	if errors.Is(err, fs.ErrNotExist) {
		if err = os.MkdirAll(dir, 0o755); err == nil {
			f, err = os.CreateTemp(dir, ".put-*.tmp")
		}
	}
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	if _, err := f.Write(b); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", target, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s: %w", target, err)
	}
	if err := os.Chmod(tmp, 0o644); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, target); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing %s: %w", target, err)
	}
	return nil
}

// Get returns the raw payload stored under the id of key (its SHA-256).
func (s *Store) Get(key string) (json.RawMessage, bool) {
	p, ok := Load[json.RawMessage](s, sha256.Sum256([]byte(key)))
	if !ok {
		return nil, false
	}
	return *p, true
}

// Put stores a raw JSON payload under the id of key (its SHA-256).
func (s *Store) Put(key string, payload json.RawMessage) error {
	return s.Save(sha256.Sum256([]byte(key)), payload)
}

// Len walks the store and counts the entries Load would serve: complete,
// well-formed, of the store's schema version and at their own address.
// It exists for observability and tests, not hot paths.
func (s *Store) Len() int {
	n := 0
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, e.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			var id [32]byte
			name, ok := strings.CutSuffix(f.Name(), ".json")
			if !ok || f.IsDir() || hex.DecodedLen(len(name)) != len(id) {
				continue
			}
			if _, err := hex.Decode(id[:], []byte(name)); err != nil {
				continue
			}
			if _, ok := Load[json.RawMessage](s, id); ok {
				n++
			}
		}
	}
	return n
}
