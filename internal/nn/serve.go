package nn

import (
	"time"

	"hccsim/internal/gpu"
)

// Serving-layer exports: internal/serve builds its per-iteration cost model
// by replaying the exact kernel and host costs the Fig. 14 decode loop
// (llm.go) and the TTFT prefill model (prefill.go) charge, so a batch-B
// decode iteration inside the request-level scheduler costs the same as a
// batch-B step of LLMSimulate on the same protection mode. The spec
// builders below are the single source of truth for both paths.

// LlamaKVTokenBytes is the per-token KV-cache footprint of Llama-3-8B:
// 2 tensors (K and V) x 32 layers x 8 KV heads (GQA) x 128 head dim x
// 2 bytes bf16 = 128 KiB per token of context.
const LlamaKVTokenBytes = int64(2*llamaLayers*8*128) * 2

// WeightBytes returns the on-device weight footprint of a weight format.
func WeightBytes(q Quant) int64 {
	if q == AWQ {
		return awqWeightBytes
	}
	return bf16WeightBytes
}

// computeScaleOf returns the per-GEMM compute multiplier of a weight format
// (AWQ pays dequantization work on every GEMM).
func computeScaleOf(q Quant) float64 {
	if q == AWQ {
		return 1.8
	}
	return 1.0
}

// HostStepCost returns the framework CPU cost charged once per scheduler
// iteration, and the extra hypercall-mediated cost charged on top when the
// protection mode traps MMIO (tdx-h100's many small driver interactions).
func HostStepCost(b Backend) (base, ccExtra time.Duration) {
	prof := profileOf(b)
	return prof.hostPerStep, prof.hostPerStepCC
}

// DecodeSpecs builds the kernel launches of one decode iteration at the
// given batch size — the same specs LLMSimulateWith launches per step.
func DecodeSpecs(b Backend, q Quant, batch int) []gpu.KernelSpec {
	prof := profileOf(b)
	weightBytes := WeightBytes(q)
	memPerKernel := weightBytes / int64(prof.kernelsPerStep)
	flops := flopsPerToken * float64(batch) * computeScaleOf(q) / float64(prof.kernelsPerStep)
	specs := make([]gpu.KernelSpec, prof.kernelsPerStep)
	names := moduleNames("decode."+q.String(), min(len(specs), 16))
	for i := range specs {
		specs[i] = gpu.KernelSpec{
			Name:            names[i%16],
			Blocks:          grid(batch),
			ThreadsPerBlock: 256,
			FLOPs:           flops * (60.0 / prof.tensorTFLOPs), // rescale to backend-achieved rate
			MemBytes:        memPerKernel,
		}
	}
	return specs
}

// PrefillSpecs builds the kernel launches of one prefill pass over
// promptTokens tokens of context — the same specs PrefillSimulateWith
// launches for the prompt pass.
func PrefillSpecs(b Backend, q Quant, promptTokens int) []gpu.KernelSpec {
	prof := profileOf(b)
	weightBytes := WeightBytes(q)
	prefillFlops := flopsPerToken * float64(promptTokens) * computeScaleOf(q)
	specs := make([]gpu.KernelSpec, prof.kernelsPerStep)
	names := moduleNames("prefill."+q.String(), min(len(specs), 16))
	for i := range specs {
		specs[i] = gpu.KernelSpec{
			Name:            names[i%16],
			Blocks:          2048,
			ThreadsPerBlock: 256,
			FLOPs:           prefillFlops / float64(prof.kernelsPerStep) * (60.0 / prof.tensorTFLOPs),
			MemBytes:        weightBytes / int64(prof.kernelsPerStep),
		}
	}
	return specs
}
