package main

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"hccsim/internal/serve"
)

// TestServeSeedChangesInputs: the seed picks the serve run's arrivals and
// lengths, and the same seed repeats them exactly.
func TestServeSeedChangesInputs(t *testing.T) {
	report := func(seed int64) string {
		cfg := serveConfig(seed)
		cfg.Requests = 40
		rep, err := serve.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	a, b := report(1), report(2)
	if a == b {
		t.Error("seeds 1 and 2 produced the same serve run")
	}
	if report(1) != a {
		t.Error("seed 1 did not repeat its serve run")
	}
}

// TestSweepSeedChangesInputs: the seed draws the sweep's four PCIe
// bandwidths from the menu the reference covers.
func TestSweepSeedChangesInputs(t *testing.T) {
	ref, err := loadReference("sweep")
	if err != nil {
		t.Fatal(err)
	}
	grids := map[string]bool{}
	for seed := int64(0); seed < 20; seed++ {
		bws := drawBandwidths(seed)
		if !slices.Equal(bws, drawBandwidths(seed)) {
			t.Fatalf("seed %d drew %v, then something else", seed, bws)
		}
		if len(bws) != 4 || !slices.IsSorted(bws) || len(slices.Compact(slices.Clone(bws))) != 4 {
			t.Fatalf("seed %d drew %v, want four distinct ascending bandwidths", seed, bws)
		}
		jobs, labels := sweepJobs(bws)
		if len(jobs) != 684 {
			t.Fatalf("seed %d: %d jobs, want 684", seed, len(jobs))
		}
		for _, l := range labels {
			if _, ok := ref[l]; !ok {
				t.Fatalf("seed %d: job %s has no reference digest", seed, l)
			}
		}
		grids[fmt.Sprint(bws)] = true
	}
	if len(grids) < 5 {
		t.Errorf("20 seeds drew only %d distinct grids", len(grids))
	}
}

// TestFiguresIgnoresSeed: the figure campaign runs the paper's
// configurations whatever the seed.
func TestFiguresIgnoresSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure campaign twice")
	}
	ref, err := loadReference("figures")
	if err != nil {
		t.Fatal(err)
	}
	var outs [][]output
	for _, seed := range []int64{1, 7} {
		w, err := newWorkload("figures", t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
		outs = append(outs, w.run(nil, map[string]float64{}, false))
	}
	if !reflect.DeepEqual(outs[0], outs[1]) {
		t.Error("figure outputs depend on the seed")
	}
	if failed, reasons := checkOutputs(ref, true, outs[0], outs[1]); failed != 0 {
		t.Errorf("%d figures differ from the reference: %v", failed, reasons)
	}
}

// TestTraceIgnoresSeed: the traced application matrix is fixed.
func TestTraceIgnoresSeed(t *testing.T) {
	var ops [][]string
	for _, seed := range []int64{1, 7} {
		w := &traceWL{workers: 2}
		if err := w.setup(seed); err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, op := range w.ops {
			names = append(names, op.name)
		}
		ops = append(ops, names)
	}
	if !slices.Equal(ops[0], ops[1]) || len(ops[0]) != 171 {
		t.Errorf("trace ops differ by seed or are not the 171-run matrix: %d, %d", len(ops[0]), len(ops[1]))
	}
}
