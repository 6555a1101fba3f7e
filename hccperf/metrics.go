package main

// metric is one reported number. BENCHMARK.json at the repository root
// lists the same names, units and bounds; TestBenchmarkJSONMatches keeps
// the two in step.
type metric struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // allowed worsening as a share of the baseline median (end-to-end only)
}

// endToEnd are the host-side costs a user of hccsim waits for, printed by
// every untraced run. All are medians over fresh-process repetitions.
var endToEnd = []metric{
	// setup_s: process start to the start of the measured phase (input
	// generation plus any memo the workload warms explicitly).
	{"setup_s", "s", "lower", 0.25},
	// wall_s: host wall time of the measured phase (sweep: the cold pass).
	{"wall_s", "s", "lower", 0.25},
	// warm_wall_s: the measured phase repeated in the same, now warm,
	// process (sweep: the pass over the warmed on-disk result cache).
	{"warm_wall_s", "s", "lower", 0.25},
	// peak_rss_mb: peak resident memory of the process up to the end of
	// the measured phase (the mean over repetitions, not the median).
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// layers are hccsim's internal packages that the CPU profile is folded
// into, innermost frame first.
var layers = []string{
	"sim", "cuda", "tdx", "pcie", "gpu", "uvm", "ccmode", "hbm", "trace",
	"core", "nn", "swcrypto", "workloads", "serve", "batch", "figures", "obs",
}

// Buckets the fold uses besides the layers.
const (
	bucketSched = "runtime-sched"
	bucketGC    = "runtime-gc"
	bucketOther = "other"
)

// topFigures are the five figures with the most serial generation time;
// traced figures runs time each in a fresh process.
var topFigures = []string{"fig13", "ext-cnnbatch", "ext-serving", "observations", "fig9"}

// perLayer lists every metric a traced run prints. Metrics that do not
// apply to a workload read 0 there.
var perLayer = func() []metric {
	var m []metric
	add := func(name, unit, better string) { m = append(m, metric{Name: name, Unit: unit, Better: better}) }
	for _, l := range layers {
		add("cpu."+l, "s", "lower")
	}
	add("cpu."+bucketSched, "s", "lower")
	add("cpu."+bucketGC, "s", "lower")
	add("cpu."+bucketOther, "s", "lower")
	add("sim.handoffs", "count", "lower")
	add("sim.events_fired", "count", "lower")
	add("sim.actor_steps", "count", "higher")
	add("workloads.execute_ms.p50", "ms", "lower")
	add("workloads.execute_ms.p99", "ms", "lower")
	add("core.decompose_ms.p50", "ms", "lower")
	add("core.decompose_ms.p99", "ms", "lower")
	add("tdx.bytes_encrypted", "bytes", "lower")
	add("pcie.bytes_moved", "bytes", "lower")
	add("uvm.fault_batches", "count", "lower")
	add("gpu.kernels_run", "count", "lower")
	add("serve.iterations", "count", "lower")
	add("serve.preemptions", "count", "lower")
	add("serve.swap_bytes", "bytes", "lower")
	add("serve.calibrate_s", "s", "lower")
	add("serve.alloc_kb_per_req", "KiB", "lower")
	add("serve.rss_kb_per_req", "KiB", "lower")
	add("batch.key_us.p50", "us", "lower")
	add("batch.cache_get_us.p50", "us", "lower")
	add("batch.cache_hits", "count", "higher")
	add("batch.cache_misses", "count", "lower")
	add("obs.spans", "count", "lower")
	add("obs.export_bytes", "bytes", "lower")
	add("obs.export_s", "s", "lower")
	add("obs.record_s", "s", "lower")
	for _, id := range topFigures {
		add("figures."+id+"_s", "s", "lower")
	}
	add("trace_overhead_s", "s", "lower")
	// fail_frac is 0 on a correct build, and a bounded end-to-end metric
	// must never be 0; untraced runs carry it as "failed"/"attempted".
	add("fail_frac", "ratio", "lower")
	return m
}()
