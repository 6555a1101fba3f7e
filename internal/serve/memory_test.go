package serve

import (
	"runtime"
	"testing"
)

// maxAllocPerRequest bounds the heap bytes one serve.Run allocates per
// offered request. With no event trace recorded, no KV state kept after
// completion and pooled copy-chain frames, a run allocates about 12 KiB per
// request (33 KiB with an unpooled frame per copy). Recording every copy
// event again lands at about 100 KiB, well above the bound.
const maxAllocPerRequest = 48 << 10

// TestServeAllocationBound runs 1000 requests of the benchmark's
// configuration (vllm/bf16 under tdx-h100 at 1.2 QPS, just under capacity)
// and bounds the bytes allocated per request. It runs without -race from
// make check; the race detector inflates allocation.
func TestServeAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound does not hold under the race detector")
	}
	if testing.Short() {
		t.Skip("1000-request run skipped in -short mode")
	}
	cfg := Config{Backend: "vllm", Quant: "bf16", Mode: "tdx-h100", RateQPS: 1.2, Requests: 1000, Seed: 1}
	warm := cfg
	warm.Requests = 1
	if _, err := Run(warm); err != nil { // calibrate outside the measurement
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rep, err := Run(cfg)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perReq := (after.TotalAlloc - before.TotalAlloc) / uint64(rep.Offered)
	t.Logf("%d requests, %d iterations: %d B allocated per request", rep.Offered, rep.Iterations, perReq)
	if perReq > maxAllocPerRequest {
		t.Fatalf("serve.Run allocated %d B per request, bound %d", perReq, maxAllocPerRequest)
	}
}
