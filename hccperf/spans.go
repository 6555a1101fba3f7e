package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call from the benchmark into an hccsim layer.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level call
	Op     int    `json:"op"`     // operation the call belongs to (figure, run, job, app)
	Name   string `json:"name"`   // layer-qualified callee, e.g. "core.Decompose"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of one traced process in memory; they are
// written out once, when the process ends. A nil recorder records nothing,
// so untraced runs pay one nil check per call. It is safe for concurrent
// use by a workload's workers.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id (0 from a nil recorder).
func (r *recorder) begin(name string, parent, op int) int {
	if r == nil {
		return 0
	}
	start := int64(time.Since(r.t0))
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start, End: -1,
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	end := int64(time.Since(r.t0))
	r.mu.Lock()
	r.spans[id-1].End = end
	r.mu.Unlock()
}

// durations lists the durations of every closed span with the given name.
func (r *recorder) durations(name string) []time.Duration {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var ds []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.End >= 0 {
			ds = append(ds, time.Duration(s.End-s.Start))
		}
	}
	return ds
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	b, err := json.Marshal(r.spans)
	r.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
