package manetsim

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// encoderIndent is what writeJSON must reproduce: a json.Encoder with
// SetIndent("", "  ").
func encoderIndent(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIndentJSONMatchesEncoder: for the shapes the API sends — empty and
// nested containers, strings holding JSON punctuation, escapes and HTML
// characters, and a real run's Result — one pass over json.Marshal's
// output writes exactly what the Encoder writes.
func TestIndentJSONMatchesEncoder(t *testing.T) {
	res, err := RunConfig(context.Background(), Config{
		Scenario: Chain(2), Transport: TransportSpec{Name: "newreno"}, TotalPackets: 110, BatchPackets: 10, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	values := []any{
		nil, true, 1.5, "plain", "",
		map[string]any{},
		[]any{},
		map[string]any{"a": map[string]any{}, "b": []any{}, "c": []any{[]any{}, map[string]any{}}},
		[]any{1, []any{2, []any{3}}, map[string]any{"k": []any{}}},
		map[string]string{"error": `quote " backslash \ brace { bracket [ colon : comma , <tag> & é 😀 ` + "\t\n\x01"},
		[]string{`\`, `\"`, `"`, `\\`, `{}`, `[]`, `,:`},
		res,
		jobStatus{ID: "sweep-1", State: jobDone, Done: 4, Total: 4},
	}
	for _, v := range values {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := indentJSON(nil, b), encoderIndent(t, v); !bytes.Equal(got, want) {
			t.Errorf("indentJSON(%s)\n%s\nwant\n%s", b, got, want)
		}
	}
}

// TestWriteJSONUnencodableIs500: a value that cannot be encoded answers
// 500 with an error body, not the status it was sent with and no body.
func TestWriteJSONUnencodableIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"goodput": math.NaN()})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body %q does not decode: %v", rec.Body.String(), err)
	}
	if !strings.Contains(body["error"], "NaN") {
		t.Errorf("error = %q, want it to name the unsupported value", body["error"])
	}
}

// FuzzIndentJSON: for any valid JSON, indentJSON of its compact form is
// json.Indent's output plus the Encoder's trailing newline.
func FuzzIndentJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		if !json.Valid(b) {
			return
		}
		var compact, want bytes.Buffer
		if err := json.Compact(&compact, b); err != nil {
			t.Fatal(err)
		}
		if err := json.Indent(&want, compact.Bytes(), "", "  "); err != nil {
			t.Fatal(err)
		}
		want.WriteByte('\n')
		if got := indentJSON(nil, compact.Bytes()); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("indentJSON(%s)\n%s\nwant\n%s", compact.Bytes(), got, want.Bytes())
		}
	})
}
