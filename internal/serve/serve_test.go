package serve

import (
	"math"
	"strings"
	"testing"
	"time"
)

func TestTraceReplaysExactArrivals(t *testing.T) {
	cfg := fastConfig("off")
	cfg.Trace = []time.Duration{time.Second, 500 * time.Millisecond, 0, 2 * time.Second}
	cfg.Requests = 0 // capped to len(Trace)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Offered != 4 {
		t.Fatalf("Offered = %d, want len(Trace) = 4", r.Offered)
	}
	if r.Completed != 4 || r.Rejected != 0 {
		t.Fatalf("completed %d rejected %d, want 4/0", r.Completed, r.Rejected)
	}
}

func TestPreemptionUnderTinyPool(t *testing.T) {
	cfg := fastConfig("off")
	// Pool of ~1536 tokens: two admitted sequences cannot both grow to
	// prompt+output, so decode growth must preempt and later swap back in.
	cfg.KVCapBytes = 1536 * 128 * 1024
	cfg.PromptTokens = LengthDist{Mean: 512}
	cfg.OutputTokens = LengthDist{Mean: 512}
	cfg.Requests = 8
	cfg.Trace = make([]time.Duration, 8) // simultaneous burst
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Preemptions == 0 {
		t.Fatal("tiny KV pool under a burst must preempt")
	}
	if r.SwapOutBytes == 0 || r.SwapInBytes == 0 {
		t.Fatalf("preemption must move KV both ways (out=%d in=%d)", r.SwapOutBytes, r.SwapInBytes)
	}
	if r.SwapInBytes > r.SwapOutBytes {
		t.Fatalf("cannot swap in more than was swapped out (out=%d in=%d)", r.SwapOutBytes, r.SwapInBytes)
	}
	if r.Completed != 8 {
		t.Fatalf("all 8 requests fit the pool individually and must complete, got %d", r.Completed)
	}
	if r.KVPeakBytes > r.KVCapBytes {
		t.Fatalf("KV peak %d exceeds pool %d", r.KVPeakBytes, r.KVCapBytes)
	}
}

func TestOversizedRequestRejected(t *testing.T) {
	cfg := fastConfig("off")
	cfg.KVCapBytes = 1024 * 128 * 1024 // 1024 tokens
	cfg.PromptTokens = LengthDist{Mean: 2048}
	cfg.OutputTokens = LengthDist{Mean: 64}
	cfg.Requests = 3
	cfg.Trace = make([]time.Duration, 3)
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rejected != 3 || r.Completed != 0 {
		t.Fatalf("prompt+output beyond the whole pool must reject up front, got completed=%d rejected=%d",
			r.Completed, r.Rejected)
	}
}

func TestQueueDepthRejections(t *testing.T) {
	cfg := fastConfig("off")
	cfg.QueueDepth = 2
	cfg.RateQPS = 500 // far beyond capacity: queue must overflow
	cfg.Requests = 64
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Rejected == 0 {
		t.Fatal("QueueDepth=2 at 500 qps must reject")
	}
	if r.Offered != r.Completed+r.Rejected {
		t.Fatalf("accounting: offered %d != completed %d + rejected %d", r.Offered, r.Completed, r.Rejected)
	}
	if r.QueuePeakDepth > cfg.QueueDepth+1 {
		// +1 for the generator's nil sentinel, which shares the queue.
		t.Fatalf("queue peaked at %d despite depth bound %d", r.QueuePeakDepth, cfg.QueueDepth)
	}
}

// TestModeOrderingUnderLoad pins the acceptance property at the default
// workload's knee: protection modes may not beat `off` on tail TTFT or
// attainment, and tdx-h100 (software crypto + trap-and-emulate launches)
// must be strictly worse.
func TestModeOrderingUnderLoad(t *testing.T) {
	run := func(mode string) Report {
		t.Helper()
		r, err := Run(Config{Mode: mode, RateQPS: 1.6})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	off := run("off")
	tdx := run("tdx-h100")
	bridge := run("tee-io-bridge+pipelined")

	if off.Preemptions == 0 {
		t.Fatal("default workload at 1.6 qps must be in the KV-pressure regime")
	}
	for _, cc := range []Report{tdx, bridge} {
		if cc.TTFT.P95 < off.TTFT.P95 {
			t.Errorf("%s TTFT p95 %v beats off %v", cc.Mode, cc.TTFT.P95, off.TTFT.P95)
		}
		if cc.SLOAttainment > off.SLOAttainment {
			t.Errorf("%s attainment %.4f beats off %.4f", cc.Mode, cc.SLOAttainment, off.SLOAttainment)
		}
	}
	if tdx.TTFT.P95 <= off.TTFT.P95 {
		t.Errorf("tdx-h100 TTFT p95 %v not strictly above off %v", tdx.TTFT.P95, off.TTFT.P95)
	}
	if tdx.TPOT.P95 <= off.TPOT.P95 {
		t.Errorf("tdx-h100 TPOT p95 %v not strictly above off %v", tdx.TPOT.P95, off.TPOT.P95)
	}
}

func TestFindCapacityBracketsKnee(t *testing.T) {
	cfg := fastConfig("off")
	cfg.SLO = SLO{TTFT: 300 * time.Millisecond, TPOT: 20 * time.Millisecond, TargetFrac: 0.9}
	c, err := FindCapacity(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.MaxQPS <= 0 {
		t.Fatal("small config has an attainable knee, search found none")
	}
	if c.Probes < capacitySearchIters {
		t.Fatalf("search spent only %d probes", c.Probes)
	}
	if c.AtCapacity.SLOAttainment < cfg.SLO.TargetFrac {
		t.Fatalf("AtCapacity report attains %.3f < target %.3f", c.AtCapacity.SLOAttainment, cfg.SLO.TargetFrac)
	}
	// Just above the knee the SLO must fail — otherwise the search stopped
	// short of the true capacity.
	over := cfg
	over.RateQPS = c.MaxQPS * 1.05
	r, err := Run(over)
	if err != nil {
		t.Fatal(err)
	}
	if r.SLOAttainment >= cfg.SLO.TargetFrac {
		t.Fatalf("5%% above reported capacity still attains (%.3f)", r.SLOAttainment)
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"bad mode", Config{Mode: "sgx", RateQPS: 1}, "mode"},
		{"bad backend", Config{Backend: "tgi", RateQPS: 1}, "backend"},
		{"bad quant", Config{Quant: "fp4", RateQPS: 1}, "quant"},
		{"no rate", Config{}, "RateQPS"},
		{"negative rate", Config{RateQPS: -1}, "RateQPS"},
		{"NaN rate", Config{RateQPS: math.NaN()}, "RateQPS"},
		{"infinite rate", Config{RateQPS: math.Inf(1)}, "RateQPS"},
		{"negative requests", Config{RateQPS: 1, Requests: -5}, "request count"},
		{"kv too small", Config{RateQPS: 1, KVCapBytes: 1}, "block"},
	}
	for _, tc := range cases {
		if _, err := Run(tc.cfg); err == nil {
			t.Errorf("%s: Run accepted invalid config", tc.name)
		} else if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
	for _, rate := range []float64{-1, math.NaN(), math.Inf(1)} {
		if _, err := FindCapacity(Config{RateQPS: rate}); err == nil {
			t.Errorf("FindCapacity accepted rate %g", rate)
		}
	}
}

func TestKVCapClampedToDevice(t *testing.T) {
	cfg := fastConfig("off")
	cfg.KVCapBytes = 1 << 62 // absurd override: clamp, don't OOM the device
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.KVCapBytes >= 1<<62 || r.KVCapBytes <= 0 {
		t.Fatalf("KV pool %d not clamped to device capacity", r.KVCapBytes)
	}
	if r.Completed == 0 {
		t.Fatal("run with clamped pool completed nothing")
	}
}

func TestSLOTargetFracValidation(t *testing.T) {
	for _, tc := range []struct {
		frac float64
		want float64 // resolved target; 0 when the value must be an error
	}{
		{0, defaultSLOTarget},
		{0.5, 0.5},
		{1, 1},
		{math.NaN(), 0},
		{math.Inf(1), 0},
		{math.Inf(-1), 0},
		{1.5, 0},
		{-0.1, 0},
	} {
		cfg := fastConfig("off")
		cfg.SLO.TargetFrac = tc.frac
		got, _, _, _, err := cfg.withDefaults()
		if tc.want == 0 {
			if err == nil || !strings.Contains(err.Error(), "SLO target") {
				t.Errorf("TargetFrac %g: error %v, want an SLO target error", tc.frac, err)
			}
			if _, err := FindCapacity(cfg); err == nil {
				t.Errorf("TargetFrac %g: FindCapacity accepted it", tc.frac)
			}
			continue
		}
		if err != nil {
			t.Errorf("TargetFrac %g: unexpected error %v", tc.frac, err)
		} else if got.SLO.TargetFrac != tc.want {
			t.Errorf("TargetFrac %g resolved to %g, want %g", tc.frac, got.SLO.TargetFrac, tc.want)
		}
	}
}

// TestCompletedRequestsDropKVState checks that a finished request holds no
// KV block array once the run drains, including requests that were
// preempted and swapped back in before completing.
func TestCompletedRequestsDropKVState(t *testing.T) {
	cfg := fastConfig("tdx-h100")
	cfg.KVCapBytes = 1536 * 128 * 1024 // forces preemption, as in TestPreemptionUnderTinyPool
	cfg.PromptTokens = LengthDist{Mean: 512}
	cfg.OutputTokens = LengthDist{Mean: 512}
	cfg.Requests = 8
	cfg.Trace = make([]time.Duration, 8)
	cfg, backend, quant, sys, err := cfg.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	wl := drawWorkload(cfg)
	rep := schedule(cfg, sys, quant, calibrated(sys, backend, quant, cfg.MaxBatch), wl)
	if rep.Preemptions == 0 || rep.Completed != len(wl) {
		t.Fatalf("want every request completed with some preempted, got %d/%d completed, %d preemptions",
			rep.Completed, len(wl), rep.Preemptions)
	}
	for _, s := range wl {
		if s.kvBlocks != nil {
			t.Errorf("request %d (preempted %d times) kept %d KV blocks (cap %d) after completing",
				s.id, s.preemptions, len(s.kvBlocks), cap(s.kvBlocks))
		}
	}
}
