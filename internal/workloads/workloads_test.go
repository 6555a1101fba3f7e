package workloads

import (
	"testing"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/trace"
)

func TestRegistryShape(t *testing.T) {
	all := All()
	if len(all) < 25 {
		t.Fatalf("only %d applications registered", len(all))
	}
	seen := make(map[string]bool)
	for _, s := range all {
		if seen[s.Name] {
			t.Fatalf("duplicate application %q", s.Name)
		}
		seen[s.Name] = true
		if len(s.Buffers) == 0 || len(s.Phases) == 0 {
			t.Fatalf("%s: empty buffers or phases", s.Name)
		}
		if s.Suite == "" {
			t.Fatalf("%s: no suite", s.Name)
		}
	}
	if len(UVMSuite()) < 8 {
		t.Fatalf("only %d UVM-capable apps", len(UVMSuite()))
	}
}

func TestPaperLaunchCounts(t *testing.T) {
	want := map[string]int{
		"dwt2d":  10,
		"3dconv": 254,
		"sc":     1611,
		"2mm":    2,
		"3mm":    3,
		"atax":   2,
		"bicg":   2,
	}
	for name, n := range want {
		s, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Launches(); got != n {
			t.Errorf("%s: %d launches, paper says %d", name, got, n)
		}
	}
}

// config is the Table I system under the named protection mode.
func config(t *testing.T, mode string) cuda.Config {
	t.Helper()
	cfg, err := cuda.NewConfig(mode)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// pair runs the same application CC-off and CC-on, the basic comparison
// unit of Figs. 5-10.
func pair(t *testing.T, s Spec, mode Mode) (base, cc Result) {
	return Execute(s, mode, config(t, "off")), Execute(s, mode, config(t, "tdx-h100"))
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Fatal("expected error for unknown app")
	}
	if len(Names()) != len(All()) {
		t.Fatal("Names() length mismatch")
	}
}

func TestExecuteProducesConsistentTrace(t *testing.T) {
	s, _ := ByName("2mm")
	res := Execute(s, CopyExecute, config(t, "off"))
	tr := res.Runtime.Tracer()
	if got := len(tr.OfKind(trace.KindLaunch)); got != 2 {
		t.Fatalf("2mm ran %d launches", got)
	}
	if got := len(tr.OfKind(trace.KindKernel)); got != 2 {
		t.Fatalf("2mm ran %d kernels", got)
	}
	// 4 H2D in, 1 D2H out.
	if got := len(tr.OfKind(trace.KindMemcpyH2D)); got != 4 {
		t.Fatalf("2mm did %d H2D copies", got)
	}
	if got := len(tr.OfKind(trace.KindMemcpyD2H)); got != 1 {
		t.Fatalf("2mm did %d D2H copies", got)
	}
	// All device memory returned.
	if used := res.Runtime.Device().Mem().Used(); used != 0 {
		t.Fatalf("2mm leaked %d device bytes", used)
	}
}

func TestEveryAppRunsBothModesAndLeaksNothing(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			res := Execute(s, CopyExecute, config(t, "off"))
			if res.End <= 0 {
				t.Fatalf("%s: zero runtime", s.Name)
			}
			if used := res.Runtime.Device().Mem().Used(); used != 0 {
				t.Fatalf("%s: leaked %d device bytes", s.Name, used)
			}
			if s.UVMCapable {
				resU := Execute(s, UVM, config(t, "off"))
				if resU.End <= 0 {
					t.Fatalf("%s/uvm: zero runtime", s.Name)
				}
			}
		})
	}
}

func TestCCAlwaysSlowerEndToEnd(t *testing.T) {
	for _, name := range []string{"2dconv", "2mm", "sc", "bfs"} {
		s, _ := ByName(name)
		base, cc := pair(t, s, CopyExecute)
		if cc.End <= base.End {
			t.Errorf("%s: CC (%v) not slower than base (%v)", name, cc.End, base.End)
		}
	}
}

func TestLaunchBoundVsComputeBoundClassification(t *testing.T) {
	// sc is the paper's launch-bound example (low KLR); gemm is compute-bound.
	scSpec, _ := ByName("sc")
	res := Execute(scSpec, CopyExecute, config(t, "tdx-h100"))
	mSC := core.Decompose(res.Runtime.Tracer())

	gemmSpec, _ := ByName("gemm")
	res2 := Execute(gemmSpec, CopyExecute, config(t, "tdx-h100"))
	mGemm := core.Decompose(res2.Runtime.Tracer())

	if mSC.KLR() >= mGemm.KLR() {
		t.Fatalf("sc KLR (%.2f) not below gemm KLR (%.2f)", mSC.KLR(), mGemm.KLR())
	}
}

func TestUVMModeUsesManagedAllocations(t *testing.T) {
	s, _ := ByName("bfs")
	res := Execute(s, UVM, config(t, "off"))
	tr := res.Runtime.Tracer()
	managed := 0
	for _, e := range tr.OfKind(trace.KindAlloc) {
		if e.Name == "cudaMallocManaged" {
			managed++
		}
	}
	if managed != len(s.Buffers) {
		t.Fatalf("bfs/uvm made %d managed allocs, want %d", managed, len(s.Buffers))
	}
	if len(tr.OfKind(trace.KindFaultBatch)) == 0 {
		t.Fatal("bfs/uvm produced no fault batches")
	}
	if len(tr.OfKind(trace.KindMemcpyH2D)) != 0 {
		t.Fatal("bfs/uvm still issued explicit H2D copies")
	}
}

func TestNonUVMKETUnchangedUnderCC(t *testing.T) {
	// Observation 5: non-UVM kernel execution time is CC-invariant.
	s, _ := ByName("gemm")
	base, cc := pair(t, s, CopyExecute)
	kb := base.Runtime.Metrics().KET
	kc := cc.Runtime.Metrics().KET
	if kb != kc {
		t.Fatalf("non-UVM KET changed under CC: %v vs %v", kb, kc)
	}
}

func TestUVMKETInflatedUnderCC(t *testing.T) {
	s, _ := ByName("2dconv")
	base, cc := pair(t, s, UVM)
	kb := base.Runtime.Metrics().KET
	kc := cc.Runtime.Metrics().KET
	if ratio := float64(kc) / float64(kb); ratio < 5 {
		t.Fatalf("2dconv UVM KET under CC only %.1fx slower", ratio)
	}
}

func TestEverySpecValidates(t *testing.T) {
	for _, s := range All() {
		if err := s.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestValidateCatchesMistakes(t *testing.T) {
	good, _ := ByName("2mm")
	bad := good
	bad.Name = ""
	if bad.Validate() == nil {
		t.Error("empty name accepted")
	}
	bad = good
	bad.Buffers = nil
	if bad.Validate() == nil {
		t.Error("no buffers accepted")
	}
	bad = good
	bad.Phases = []phase{{name: "x", count: 0, blocks: 1, tpb: 1, flops: 1}}
	if bad.Validate() == nil {
		t.Error("zero-count phase accepted")
	}
	bad = good
	bad.Phases = []phase{{name: "x", count: 1, blocks: 1, tpb: 1}}
	if bad.Validate() == nil {
		t.Error("zero-work phase accepted")
	}
	bad = good
	bad.Phases = []phase{{name: "x", count: 1, blocks: 1, tpb: 1, flops: 1, touch: 1 << 40}}
	if bad.Validate() == nil {
		t.Error("oversized touch accepted")
	}
}

// Golden event counts: the exact number of launches, kernels and copies of
// every application is a strong regression anchor for the whole runtime.
func TestEventCountsStable(t *testing.T) {
	for _, s := range All() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			res := Execute(s, CopyExecute, config(t, "off"))
			tr := res.Runtime.Tracer()
			if got := len(tr.OfKind(trace.KindLaunch)); got != s.Launches() {
				t.Errorf("launches = %d, spec says %d", got, s.Launches())
			}
			if got := len(tr.OfKind(trace.KindKernel)); got != s.Launches() {
				t.Errorf("kernels = %d, want %d", got, s.Launches())
			}
			rounds := s.HostRounds
			if rounds < 1 {
				rounds = 1
			}
			wantH2D := len(s.Buffers)
			if got := len(tr.OfKind(trace.KindMemcpyH2D)); got != wantH2D {
				t.Errorf("H2D copies = %d, want %d", got, wantH2D)
			}
		})
	}
}
