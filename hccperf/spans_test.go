package main

import "testing"

// TestRecorderConcurrent records nested spans from several workers at once,
// as the trace workload does; run it under -race.
func TestRecorderConcurrent(t *testing.T) {
	rec := newRecorder()
	const n = 200
	forEach(n, 4, func(i int) {
		root := rec.begin("hcctrace", 0, i+1)
		id := rec.begin("core.Decompose", root, i+1)
		rec.end(id)
		rec.end(root)
	})
	if got := len(rec.durations("core.Decompose")); got != n {
		t.Fatalf("%d core.Decompose spans, want %d", got, n)
	}
	for _, s := range rec.spans {
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
		if s.Name == "core.Decompose" {
			p := rec.spans[s.Parent-1]
			if p.Name != "hcctrace" || p.Op != s.Op {
				t.Fatalf("span %+v has parent %+v", s, p)
			}
		}
	}
	var nilRec *recorder
	if id := nilRec.begin("x", 0, 1); id != 0 || nilRec.durations("x") != nil {
		t.Error("a nil recorder recorded a span")
	}
}
