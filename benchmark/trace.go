package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the ID of the span that caused this one (0: none).
// All spans are recorded here in the benchmark, around calls into each
// layer's public functions or from times a response already reports —
// never inside the program under test.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent,omitempty"`
	Req     int64  `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"startNs"` // since the tracer was created
	EndNs   int64  `json:"endNs"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	req   int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates the identifier the spans of one request share.
func (t *tracer) request() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.req++
	return t.req
}

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, req int64, start time.Time, d time.Duration) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, StartNs: s, EndNs: s + d.Nanoseconds()})
	return id
}

// end closes a span recorded with a zero duration once the calls it
// spans have returned.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNs = time.Since(t.t0).Nanoseconds()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent int, req int64, fn func()) {
	start := time.Now()
	fn()
	t.add(name, parent, req, start, time.Since(start))
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfMs returns, per request, the self time in milliseconds of the spans
// whose name starts with prefix: each span's duration minus the part its
// child spans cover. Children recorded here never overlap one another, so
// that part is the sum of their durations.
func (t *tracer) selfMs(prefix string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make(map[int]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	perReq := make(map[int64]float64)
	var order []int64
	for _, s := range t.spans {
		if !strings.HasPrefix(s.Name, prefix) {
			continue
		}
		if _, seen := perReq[s.Req]; !seen {
			order = append(order, s.Req)
		}
		perReq[s.Req] += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e6
	}
	out := make([]float64, len(order))
	for i, r := range order {
		out[i] = perReq[r]
	}
	return out
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
