package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records in-memory spans around the benchmark's calls into each
// layer. A nil *tracer is the untraced mode: every method is a no-op, so
// the timed code paths are identical apart from one nil check.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	spans []*span
}

// span is one timed call. Parent is the ID of the span that caused it
// (0 for a root); Req groups the spans of one request or launch.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	t *tracer
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// start opens a span; parent is nil for a root span.
func (t *tracer) start(name string, parent *span, req int) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Req: req, t: t}
	if parent != nil {
		s.Parent = parent.ID
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	s.ID = len(t.spans)
	t.mu.Unlock()
	s.Start = int64(time.Since(t.origin))
	return s
}

// stop closes the span.
func (s *span) stop() {
	if s == nil {
		return
	}
	s.End = int64(time.Since(s.t.origin))
}

// dur returns the span's duration in seconds.
func (s *span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// layerOf maps a span name such as "gpu.Run" to its layer, "gpu".
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time in seconds: the summed
// duration of its spans minus the part covered by their child spans.
// Children of one span never overlap, since each span's children are
// issued sequentially by one goroutine.
func (t *tracer) selfTimes() map[string]float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]float64)
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[layerOf(s.Name)] += s.dur() - child[s.ID]
	}
	return self
}

// total returns the summed duration of every span with the given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.dur()
		}
	}
	return sum
}

// write dumps every span, with the per-layer self times, as JSON.
func (t *tracer) write(path string) error {
	if t == nil {
		return nil
	}
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	type layerSelf struct {
		Layer string  `json:"layer"`
		SelfS float64 `json:"self_s"`
	}
	out := struct {
		Self  []layerSelf `json:"self"`
		Spans []*span     `json:"spans"`
	}{Spans: t.spans}
	for _, l := range layers {
		out.Self = append(out.Self, layerSelf{l, self[l]})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
