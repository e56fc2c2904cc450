package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer. Spans are
// recorded only here in the harness, never inside the program.
type span struct {
	ID      int            `json:"id"`
	Parent  int            `json:"parent"` // 0 = root
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"` // since the tracer started
	EndNS   int64          `json:"end_ns"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// tracer keeps spans in memory and writes them out once, at exit. A nil
// tracer records nothing, which is how the untraced run stays untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int // open spans of the driving goroutine, innermost last
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, StartNS: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = time.Since(t.t0).Nanoseconds()
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// in wraps fn in a span.
func (t *tracer) in(name string, fn func()) {
	id := t.begin(name)
	fn()
	t.end(id)
}

// add records a finished span from any goroutine (the daemon's client
// connections), under an explicit parent.
func (t *tracer) add(parent int, name string, start, end time.Time, attrs map[string]any) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Attrs: attrs,
	})
}

// write emits the span file: the spans plus the counts and per-layer
// values taken at the same boundaries.
func (t *tracer) write(path, workload string, seed int64, o *outcome) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     int64              `json:"seed"`
		Spans    []span             `json:"spans"`
		Exact    map[string]int64   `json:"exact"`
		Layers   map[string]float64 `json:"per_layer"`
	}{workload, seed, t.spans, o.exact, o.metrics})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
