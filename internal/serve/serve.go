// Package serve is the request-level LLM serving simulator: an open-loop
// request generator, a bounded admission queue, and a continuous-batching
// scheduler running on the deterministic engine (internal/sim) against the
// protection-mode cost model (internal/ccmode via internal/cuda) and the
// Llama decode/prefill kernel model (internal/nn).
//
// The paper's Fig. 14 measures LLM inference under CC only as steady-state
// decode throughput at fixed batch sizes; this package measures what that
// leaves out — queueing, TTFT inflation, KV-cache pressure, and capacity
// loss under load. Arrivals are seeded (no wall clock, injected splitmix64
// RNG), so a (Config, Seed) pair reproduces byte-identically on any
// machine; the same normalized arrival shape is replayed at every offered
// rate, so latency-vs-load curves and the capacity search see a smooth,
// deterministic attainment function.
package serve

import (
	"fmt"
	"math"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/nn"
	"hccsim/internal/obs"
)

// LengthDist is a token-length distribution: fixed at Mean when Spread is
// zero, else uniform on [Mean-Spread, Mean+Spread] (clamped to >= 1).
type LengthDist struct {
	Mean   int
	Spread int
}

func (d LengthDist) String() string {
	if d.Spread == 0 {
		return fmt.Sprintf("%d", d.Mean)
	}
	return fmt.Sprintf("%d±%d", d.Mean, d.Spread)
}

// SLO is the latency service-level objective a request must meet to count
// as attained. Zero fields are unchecked.
type SLO struct {
	// TTFT is the time-to-first-token target (queueing + prefill).
	TTFT time.Duration
	// TPOT is the per-output-token target (decode-phase steady pace).
	TPOT time.Duration
	// TargetFrac is the attainment fraction the capacity search requires
	// (e.g. 0.95 = p95 of offered requests meet the SLO). It must lie in
	// (0, 1]; 0 means the default, anything else outside is an error.
	TargetFrac float64
}

// Config describes one serving experiment. The zero value of most fields
// resolves to the defaults documented per field (DESIGN.md §10); Backend,
// Quant and Mode are parsed strings so the facade, CLI, and batch jobs can
// carry configurations without importing nn.
type Config struct {
	// Backend is the serving framework ("vllm" or "hf"); default vllm.
	Backend string
	// Quant is the weight format ("bf16" or "awq"); default bf16.
	Quant string
	// Mode names the protection mode (hccsim.Modes); default "off".
	// Ignored when System is set.
	Mode string
	// Platform names the hardware profile (platform.Names); default the
	// h100-tdx testbed. Ignored when System is set (an explicit config
	// already carries its platform).
	Platform string
	// System optionally overrides the full substrate configuration
	// (parameter sweeps); its resolved mode and platform are authoritative.
	System *cuda.Config

	// Seed seeds the injected RNG for arrivals and lengths; default 1.
	Seed uint64
	// Requests is the offered request count; 0 means the default 160
	// (enough for the resident set to reach KV-pool saturation at rates
	// near the knee), and a negative count is an error.
	Requests int
	// RateQPS is the Poisson arrival rate in requests per second.
	// Required (finite, >0; see CheckRate) unless Trace is set.
	RateQPS float64
	// Trace optionally replays explicit interarrival gaps instead of
	// Poisson arrivals; Requests is capped at len(Trace).
	Trace []time.Duration

	// PromptTokens is the prompt-length distribution; default 4096±2048.
	PromptTokens LengthDist
	// OutputTokens is the output-length distribution; default 4096±2048
	// (reasoning-style traffic: each admitted sequence's KV roughly doubles
	// after admission, so a saturated pool is forced into swap-based
	// preemption — the regime where protection modes tax the link).
	OutputTokens LengthDist

	// MaxBatch caps concurrently running sequences; default 128 (under the
	// default lengths the KV pool binds first, at ~90 resident sequences).
	MaxBatch int
	// MaxPrefillTokens caps the prompt tokens batched into one prefill
	// iteration; default 8192.
	MaxPrefillTokens int
	// QueueDepth bounds the admission queue; arrivals beyond it are
	// rejected. Default 512.
	QueueDepth int
	// KVCapBytes is the KV-cache pool size; default HBM capacity minus
	// weights minus a 6 GiB activation/workspace reserve.
	KVCapBytes int64
	// KVBlockTokens is the paged-KV block granularity in tokens
	// (vLLM-style); default 16.
	KVBlockTokens int

	// SLO is the latency objective; defaults TTFT 1.5s, TPOT 40ms,
	// TargetFrac 0.95.
	SLO SLO

	// Observer optionally attaches the observability layer: the run binds
	// it to its private engine, opens scheduler-iteration and request-
	// lifecycle spans, and publishes the end-of-run counters into its
	// metrics registry. Nil (the default) records nothing and costs one
	// nil check per would-be span.
	Observer *obs.Observer
}

// Defaults mirroring DESIGN.md §10.
const (
	defaultRequests         = 160
	defaultPromptMean       = 4096
	defaultPromptSpread     = 2048
	defaultOutputMean       = 4096
	defaultOutputSpread     = 2048
	defaultMaxBatch         = 128
	defaultMaxPrefillTokens = 8192
	defaultQueueDepth       = 512
	defaultKVBlockTokens    = 16
	defaultSLOTTFT          = 1500 * time.Millisecond
	defaultSLOTPOT          = 40 * time.Millisecond
	defaultSLOTarget        = 0.95
	workspaceReserveBytes   = int64(6) << 30
	// kvClampHeadroomBytes is kept free of the KV pool when clamping an
	// oversized KVCapBytes override, so staging buffers still allocate.
	kvClampHeadroomBytes = int64(1) << 30
	// tokenIDBytes is the wire size of one int32 token id in the prompt
	// and sampled-token H2D/D2H copies.
	tokenIDBytes = 4
)

// withDefaults returns cfg with zero fields resolved, plus the parsed
// backend/quant and the normalized system config.
func (cfg Config) withDefaults() (Config, nn.Backend, nn.Quant, cuda.Config, error) {
	if cfg.Backend == "" {
		cfg.Backend = "vllm"
	}
	if cfg.Quant == "" {
		cfg.Quant = "bf16"
	}
	backend, err := nn.BackendByName(cfg.Backend)
	if err != nil {
		return cfg, 0, 0, cuda.Config{}, err
	}
	quant, err := nn.QuantByName(cfg.Quant)
	if err != nil {
		return cfg, 0, 0, cuda.Config{}, err
	}
	var sys cuda.Config
	if cfg.System != nil {
		sys, err = cfg.System.Normalize()
	} else {
		sys, err = cuda.PlatformConfig(cfg.Platform, cfg.Mode)
	}
	if err != nil {
		return cfg, 0, 0, cuda.Config{}, err
	}
	cfg.Mode = sys.Mode
	cfg.Platform = sys.Platform

	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Requests < 0 {
		return cfg, 0, 0, cuda.Config{}, fmt.Errorf("serve: negative request count %d (0 means the default %d)", cfg.Requests, defaultRequests)
	}
	if cfg.Requests == 0 {
		cfg.Requests = defaultRequests
	}
	if len(cfg.Trace) > 0 && cfg.Requests > len(cfg.Trace) {
		cfg.Requests = len(cfg.Trace)
	}
	if len(cfg.Trace) == 0 {
		if err := CheckRate(cfg.RateQPS); err != nil {
			return cfg, 0, 0, cuda.Config{}, fmt.Errorf("%w (RateQPS is required unless Trace is set)", err)
		}
	}
	if cfg.PromptTokens.Mean <= 0 {
		cfg.PromptTokens = LengthDist{Mean: defaultPromptMean, Spread: defaultPromptSpread}
	}
	if cfg.OutputTokens.Mean <= 0 {
		cfg.OutputTokens = LengthDist{Mean: defaultOutputMean, Spread: defaultOutputSpread}
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = defaultMaxBatch
	}
	if cfg.MaxPrefillTokens <= 0 {
		cfg.MaxPrefillTokens = defaultMaxPrefillTokens
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = defaultQueueDepth
	}
	if cfg.KVBlockTokens <= 0 {
		cfg.KVBlockTokens = defaultKVBlockTokens
	}
	if cfg.KVCapBytes <= 0 {
		cfg.KVCapBytes = sys.HBM.CapacityBytes - nn.WeightBytes(quant) - workspaceReserveBytes
	}
	// The pool, weights, and staging buffers are real device allocations in
	// the scheduler's context; clamp an oversized override so the run does
	// not die on a simulated cudaMalloc OOM.
	if max := sys.HBM.CapacityBytes - nn.WeightBytes(quant) - kvClampHeadroomBytes; cfg.KVCapBytes > max {
		cfg.KVCapBytes = max
	}
	blockBytes := int64(cfg.KVBlockTokens) * nn.LlamaKVTokenBytes
	if cfg.KVCapBytes < blockBytes {
		return cfg, 0, 0, cuda.Config{}, fmt.Errorf("serve: KV pool of %d bytes holds no %d-token block (%d bytes)",
			cfg.KVCapBytes, cfg.KVBlockTokens, blockBytes)
	}
	if cfg.SLO.TTFT <= 0 {
		cfg.SLO.TTFT = defaultSLOTTFT
	}
	if cfg.SLO.TPOT <= 0 {
		cfg.SLO.TPOT = defaultSLOTPOT
	}
	if cfg.SLO.TargetFrac == 0 {
		cfg.SLO.TargetFrac = defaultSLOTarget
	}
	if !(cfg.SLO.TargetFrac > 0 && cfg.SLO.TargetFrac <= 1) {
		return cfg, 0, 0, cuda.Config{}, fmt.Errorf("serve: SLO target fraction %g is not in (0, 1] (0 means the default %g)",
			cfg.SLO.TargetFrac, defaultSLOTarget)
	}
	return cfg, backend, quant, sys, nil
}

// CheckRate is the one validation of an offered request rate: it must be
// finite and positive. Config, the CLIs, and sweep axes and jobs all call
// it, so NaN or an infinite rate fails loudly instead of simulating.
func CheckRate(rateQPS float64) error {
	if !(rateQPS > 0) || math.IsInf(rateQPS, 1) {
		return fmt.Errorf("serve: rate %g QPS is not finite and positive", rateQPS)
	}
	return nil
}

// LatencySummary condenses one latency histogram.
type LatencySummary struct {
	Mean time.Duration
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
}

func summarize(h *Histogram) LatencySummary {
	return LatencySummary{
		Mean: h.Mean(),
		P50:  h.Quantile(0.50),
		P95:  h.Quantile(0.95),
		P99:  h.Quantile(0.99),
	}
}

// Report is the outcome of one serving run. All durations are simulated
// time; the run consumes no wall clock beyond host CPU.
type Report struct {
	Mode string
	// Platform is the canonical hardware-profile name the run used.
	Platform string
	Backend  string
	Quant    string
	RateQPS  float64
	Seed     uint64

	// Accounting: Offered = Completed + Rejected once the run drains.
	Offered   int
	Completed int
	Rejected  int
	// Preemptions counts KV-pressure victim swaps; SwapOutBytes and
	// SwapInBytes are the KV traffic they moved across the link.
	Preemptions  int
	SwapOutBytes int64
	SwapInBytes  int64

	// Iterations counts scheduler steps (prefill + decode).
	Iterations     int
	DecodeIters    int
	PrefillIters   int
	MakespanSim    time.Duration
	ThroughputQPS  float64 // completed requests per simulated second
	TokensPerSec   float64 // generated tokens per simulated second
	AvgDecodeBatch float64 // mean running sequences per decode iteration
	KVPeakBytes    int64
	KVCapBytes     int64
	QueuePeakDepth int
	SLOAttainment  float64 // fraction of offered requests meeting the SLO
	SLOTTFT        time.Duration
	SLOTPOT        time.Duration

	TTFT LatencySummary
	TPOT LatencySummary
	E2E  LatencySummary
}

// String renders the report as a deterministic one-line-per-field text
// block; the determinism tests byte-compare it.
func (r Report) String() string {
	return fmt.Sprintf(
		"serve mode=%s backend=%s quant=%s rate=%.4gqps seed=%d\n"+
			"offered=%d completed=%d rejected=%d preemptions=%d swap_out=%dB swap_in=%dB\n"+
			"iters=%d (prefill=%d decode=%d) makespan=%v batch=%.2f kv_peak=%dB/%dB queue_peak=%d\n"+
			"ttft p50=%v p95=%v p99=%v\n"+
			"tpot p50=%v p95=%v p99=%v\n"+
			"e2e  p50=%v p95=%v p99=%v\n"+
			"throughput=%.4gqps tokens=%.5g/s slo(ttft<=%v,tpot<=%v)=%.4f\n",
		r.Mode, r.Backend, r.Quant, r.RateQPS, r.Seed,
		r.Offered, r.Completed, r.Rejected, r.Preemptions, r.SwapOutBytes, r.SwapInBytes,
		r.Iterations, r.PrefillIters, r.DecodeIters, r.MakespanSim, r.AvgDecodeBatch,
		r.KVPeakBytes, r.KVCapBytes, r.QueuePeakDepth,
		r.TTFT.P50, r.TTFT.P95, r.TTFT.P99,
		r.TPOT.P50, r.TPOT.P95, r.TPOT.P99,
		r.E2E.P50, r.E2E.P95, r.E2E.P99,
		r.ThroughputQPS, r.TokensPerSec, r.SLOTTFT, r.SLOTPOT, r.SLOAttainment)
}

// Run executes one serving experiment and returns its report. It is safe
// for concurrent use from multiple goroutines (each run owns its engine;
// the calibration memo is mutex-guarded).
func Run(cfg Config) (Report, error) {
	cfg, backend, quant, sys, err := cfg.withDefaults()
	if err != nil {
		return Report{}, err
	}
	model := calibrated(sys, backend, quant, cfg.MaxBatch)
	wl := drawWorkload(cfg)
	return schedule(cfg, sys, quant, model, wl), nil
}
