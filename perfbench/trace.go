package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation (a solve, a step, a request) share Trace; Parent links a span
// to the one that caused it. Times the program reports about itself (phase
// tables, queue and solve time) ride along as Attrs of the call's span:
// the benchmark knows their durations but not their start times.
type span struct {
	ID     int64              `json:"id"`
	Trace  int64              `json:"trace"`
	Parent int64              `json:"parent,omitempty"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a finished span and returns its ID (0 on a nil tracer).
func (t *tracer) add(trace, parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{
		ID: id, Trace: trace, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Attrs: attrs,
	})
	return id
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
