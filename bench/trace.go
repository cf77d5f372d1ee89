package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program under test. Times are offsets from the tracer's start.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Rep    int           `json:"rep"` // repetition the span belongs to
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
	Bytes  int64         `json:"bytes,omitempty"`
}

// tracer keeps spans in memory until the run ends. Every workload drives the
// program from one goroutine, so it needs no locking. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0    time.Time
	rep   int
	spans []span
	// onPhase, if set, hears a repetition move from its cold to its warm
	// phase, so the harness can profile the two apart.
	onPhase func(name string)
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 for none) and returns its id.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Name: name, Rep: t.rep,
		Start: time.Since(t.t0),
	})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.t0)
}

func (t *tracer) phase(name string) {
	if t != nil && t.onPhase != nil {
		t.onPhase(name)
	}
}

func (t *tracer) setBytes(id int, n int64) {
	if t == nil {
		return
	}
	t.spans[id].Bytes = n
}

// selfMs returns, per span name, each span's self time in milliseconds: its
// duration minus the time its direct children cover.
func (t *tracer) selfMs() map[string][]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := make(map[string][]float64)
	for _, s := range t.spans {
		self := s.End - s.Start - child[s.ID]
		out[s.Name] = append(out[s.Name], float64(self)/float64(time.Millisecond))
	}
	return out
}

// bytesOf returns the Bytes attribute of every span with the given name.
func (t *tracer) bytesOf(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Bytes))
		}
	}
	return out
}

func (t *tracer) writeFile(path string) error {
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
