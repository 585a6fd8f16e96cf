package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the exported function it calls. Parent links a call to the span that
// caused it (a publication, a batch, an engine run); 0 is the root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the in-memory trace; spans past it are counted, not
// kept.
const maxSpans = 1 << 21

// tracer keeps spans in memory for the traced run and writes them out
// when the run ends. A nil *tracer is the untraced run: every method is
// a no-op, so call sites need no branches.
type tracer struct {
	t0      time.Time
	ids     atomic.Int64
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id allocates a span ID before the span ends, so children can name it.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// add records a finished span.
func (t *tracer) add(id, parent int64, name string, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
			Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
