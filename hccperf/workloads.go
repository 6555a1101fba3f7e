package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"hccsim/internal/batch"
	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/figures"
	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/serve"
	"hccsim/internal/swcrypto"
	"hccsim/internal/workloads"
)

// output is one operation's simulated result, reduced to a digest.
type output struct {
	op     string
	digest string
	err    error
}

// workload is one benchmark input set, driven through hccsim's package
// entry points. A process calls setup once, then run twice: the cold
// (measured) pass and the warm pass.
type workload interface {
	// setup builds the inputs from the seed and warms the memos the
	// workload charges to set-up time.
	setup(seed int64) error
	// run executes the measured phase and returns one output per
	// operation. It adds the pass's counters to lm and times its calls
	// into each layer on rec (nil when untraced).
	run(rec *recorder, lm map[string]float64, warm bool) []output
	// probe runs traced-only extra measurements after the CPU profile has
	// stopped, so they never count toward the measured phase.
	probe(rec *recorder, lm map[string]float64)
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"figures", "serve", "sweep", "trace"}

// newWorkload returns the named workload. dir is a private scratch
// directory (the sweep's on-disk result cache lives there).
func newWorkload(name, dir string) (workload, error) {
	workers := runtime.NumCPU()
	switch name {
	case "figures":
		return &figuresWL{workers: workers}, nil
	case "serve":
		return &serveWL{}, nil
	case "sweep":
		return &sweepWL{workers: workers, dir: dir}, nil
	case "trace":
		return &traceWL{workers: workers}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(workloadNames, ", "))
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:16])
}

// --- figures: the full paper + extension campaign --------------------------

// figuresWL is figures.GenerateAll at pool width nproc: the figure
// campaign of hccreport / `hccbench all`. Its configurations are the
// paper's, so it ignores the seed.
type figuresWL struct{ workers int }

// setup warms fig4b's host crypto measurement, a fixed wall-clock budget
// per cipher that measures the machine rather than the simulator. The
// arguments match Fig04bCrypto's call, so the campaign hits the memo.
func (w *figuresWL) setup(int64) error {
	for _, alg := range swcrypto.AllAlgorithms {
		if _, err := swcrypto.MeasureOnce(alg, 64<<10, 20*time.Millisecond); err != nil {
			return fmt.Errorf("warming %s measurement: %w", alg, err)
		}
	}
	return nil
}

func (w *figuresWL) run(rec *recorder, _ map[string]float64, _ bool) []output {
	id := rec.begin("figures.GenerateAll", 0, 0)
	tables, err := figures.GenerateAll(w.workers)
	rec.end(id)
	if err != nil {
		outs := make([]output, len(figures.IDs()))
		for i, id := range figures.IDs() {
			outs[i] = output{op: id, err: err}
		}
		return outs
	}
	outs := make([]output, len(tables))
	for i, t := range tables {
		outs[i] = output{op: t.ID, digest: tableDigest(t)}
	}
	return outs
}

func (w *figuresWL) probe(*recorder, map[string]float64) {}

// tableDigest hashes a rendered figure, blanking fig4b's local-measured
// column: it times real crypto on the host and differs on every run.
func tableDigest(t figures.Table) string {
	if t.ID == "fig4b" {
		col := -1
		for i, c := range t.Columns {
			if c == "local-measured" {
				col = i
			}
		}
		rows := make([][]string, len(t.Rows))
		for i, r := range t.Rows {
			rows[i] = append([]string(nil), r...)
			if col >= 0 && col < len(r) {
				rows[i][col] = "*"
			}
		}
		t.Rows = rows
	}
	return digest([]byte(t.String()))
}

// timeFigures generates each of the slowest figures on its own, serially,
// in this (fresh) process: their serial cost without the campaign's
// shared reuse scope.
func timeFigures(lm map[string]float64) []output {
	var outs []output
	for _, id := range topFigures {
		start := time.Now()
		t, err := figures.Generate(id)
		lm["figures."+id+"_s"] = time.Since(start).Seconds()
		outs = append(outs, output{op: id, digest: tableDigest(t), err: err})
	}
	return outs
}

// --- serve: one long request-level serving run ------------------------------

// Serving load: just under tdx-h100's capacity (1.346 qps), so KV
// pressure forces a few swap preemptions and memory grows with the
// request count.
const (
	serveRequests = 8000
	serveRateQPS  = 1.2
)

type serveWL struct {
	cfg   serve.Config
	calib time.Duration
}

// serveConfig is the run for a seed. Serve seeds are 1-based (0 selects
// serve's default, 1), so benchmark seed n runs serve seed n+1.
func serveConfig(seed int64) serve.Config {
	return serve.Config{
		Backend: "vllm", Quant: "bf16", Mode: "tdx-h100",
		RateQPS: serveRateQPS, Requests: serveRequests, Seed: uint64(seed) + 1,
	}
}

// setup warms the cost-model calibration with a one-request run of the
// same configuration; the calibration is the first call's cost.
func (w *serveWL) setup(seed int64) error {
	w.cfg = serveConfig(seed)
	one := w.cfg
	one.Requests = 1
	start := time.Now()
	if _, err := serve.Run(one); err != nil {
		return fmt.Errorf("calibrating serve: %w", err)
	}
	w.calib = time.Since(start)
	return nil
}

func (w *serveWL) run(rec *recorder, lm map[string]float64, warm bool) []output {
	allocs0, rss0 := heapAllocBytes(), rssKiB()
	id := rec.begin("serve.Run", 0, 0)
	rep, err := serve.Run(w.cfg)
	rec.end(id)
	out := output{op: fmt.Sprintf("seed=%d", w.cfg.Seed), err: err}
	if err != nil {
		return []output{out}
	}
	switch {
	case rep.Offered != rep.Completed+rep.Rejected:
		out.err = fmt.Errorf("offered %d != completed %d + rejected %d", rep.Offered, rep.Completed, rep.Rejected)
	case rep.Offered != w.cfg.Requests:
		out.err = fmt.Errorf("offered %d requests, want %d", rep.Offered, w.cfg.Requests)
	}
	out.digest = digest([]byte(rep.String()))
	if !warm {
		n := float64(rep.Offered)
		lm["serve.iterations"] = float64(rep.Iterations)
		lm["serve.preemptions"] = float64(rep.Preemptions)
		lm["serve.swap_bytes"] = float64(rep.SwapOutBytes + rep.SwapInBytes)
		lm["serve.calibrate_s"] = w.calib.Seconds()
		lm["serve.alloc_kb_per_req"] = float64(heapAllocBytes()-allocs0) / 1024 / n
		lm["serve.rss_kb_per_req"] = float64(peakRSSKiB()-rss0) / n
	}
	return []output{out}
}

func (w *serveWL) probe(*recorder, map[string]float64) {}

// --- sweep: a cached batch grid ---------------------------------------------

// sweepModes are the protection modes of the sweep and trace grids: no
// protection, the paper's bounce-buffer TDX, and the TEE-IO projection.
var sweepModes = []string{"off", "tdx-h100", "tee-io-bridge+pipelined"}

// bandwidthMenu holds the PCIe bandwidths (GB/s) a sweep seed draws four
// of; the reference digests cover every job the menu allows.
var bandwidthMenu = []float64{8, 12, 16, 24, 32, 48, 64, 128}

type sweepWL struct {
	workers int
	dir     string
	jobs    []batch.Job
	labels  []string
}

// drawBandwidths picks four distinct menu entries from the seed (a
// splitmix64-driven partial Fisher-Yates shuffle), in ascending order.
func drawBandwidths(seed int64) []float64 {
	menu := append([]float64(nil), bandwidthMenu...)
	x := uint64(seed)
	next := func() uint64 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		return z ^ z>>31
	}
	for i := 0; i < 4; i++ {
		j := i + int(next()%uint64(len(menu)-i))
		menu[i], menu[j] = menu[j], menu[i]
	}
	bws := menu[:4]
	sort.Float64s(bws)
	return bws
}

// sweepJobs is every application in its copy and (where it has one) UVM
// variant, under each sweep mode, at each bandwidth.
func sweepJobs(bws []float64) (jobs []batch.Job, labels []string) {
	for _, s := range workloads.All() {
		for _, uvm := range []bool{false, true} {
			if uvm && !s.UVMCapable {
				continue
			}
			for _, m := range sweepModes {
				for _, bw := range bws {
					jobs = append(jobs, batch.Job{
						Kind: batch.KindWorkload, Workload: s.Name, UVM: uvm, Mode: m,
						Overrides: []batch.Override{{Param: "PCIeGBps", Value: bw}},
					})
					labels = append(labels, fmt.Sprintf("%s/%s/%s/pcie=%g", s.Name, variantName(uvm), m, bw))
				}
			}
		}
	}
	return jobs, labels
}

func variantName(uvm bool) string {
	if uvm {
		return "uvm"
	}
	return "copy"
}

func (w *sweepWL) setup(seed int64) error {
	w.jobs, w.labels = sweepJobs(drawBandwidths(seed))
	return os.RemoveAll(w.dir)
}

// run is the cold pass into an empty on-disk cache, or the warm pass:
// a fresh process-level cache object over the same directory, so every
// job is read back from disk.
func (w *sweepWL) run(rec *recorder, lm map[string]float64, warm bool) []output {
	id := rec.begin("batch.Run", 0, 0)
	res, cache, err := batch.Run(w.jobs, w.workers, w.dir)
	rec.end(id)
	outs := make([]output, len(w.jobs))
	for i := range w.jobs {
		outs[i].op = w.labels[i]
		switch {
		case err != nil:
			outs[i].err = err
		case res[i].Err != nil:
			outs[i].err = res[i].Err
		case warm && !res[i].Cached:
			outs[i].err = errors.New("warm pass re-simulated a cached job")
		default:
			outs[i].digest = digest(res[i].Bytes)
		}
	}
	if cache != nil {
		hits, misses, _ := cache.Stats()
		lm["batch.cache_hits"] += float64(hits)
		lm["batch.cache_misses"] += float64(misses)
	}
	return outs
}

// probe times job hashing and reads of the warmed cache, one call each.
func (w *sweepWL) probe(rec *recorder, lm map[string]float64) {
	keys := make([]string, 0, len(w.jobs))
	for i, j := range w.jobs {
		id := rec.begin("batch.Job.Key", 0, i+1)
		k, err := j.Key()
		rec.end(id)
		if err == nil {
			keys = append(keys, k)
		}
	}
	cache, err := batch.NewCache(w.dir)
	if err != nil {
		return
	}
	for i, k := range keys {
		id := rec.begin("batch.Cache.Get", 0, i+1)
		cache.Get(k)
		rec.end(id)
	}
	lm["batch.key_us.p50"] = us(quantile(rec.durations("batch.Job.Key"), 0.5))
	lm["batch.cache_get_us.p50"] = us(quantile(rec.durations("batch.Cache.Get"), 0.5))
}

// --- trace: the hcctrace path with an observer attached ---------------------

type traceOp struct {
	name string
	spec workloads.Spec
	mode workloads.Mode
	cfg  cuda.Config
}

// traceWL runs every application, copy and UVM variant, under each sweep
// mode with an Observer attached, as hcctrace -trace does, and exports
// each run's Chrome trace. It is the only workload where obs records.
// Runs are spread over nproc workers like the sweep's: run serially on a
// 2-vCPU machine, this allocation-heavy path doubled its time during
// spells of heavy CPU steal, where the two-worker sweep moved about 10%.
// Its inputs are fixed, so it ignores the seed.
type traceWL struct {
	workers int
	ops     []traceOp
}

func traceOps() ([]traceOp, error) {
	var ops []traceOp
	for _, m := range sweepModes {
		cfg, err := cuda.NewConfig(m)
		if err != nil {
			return nil, err
		}
		for _, s := range workloads.All() {
			for _, uvm := range []bool{false, true} {
				if uvm && !s.UVMCapable {
					continue
				}
				mode := workloads.CopyExecute
				if uvm {
					mode = workloads.UVM
				}
				ops = append(ops, traceOp{
					name: fmt.Sprintf("%s/%s/%s", s.Name, variantName(uvm), m),
					spec: s, mode: mode, cfg: cfg,
				})
			}
		}
	}
	return ops, nil
}

func (w *traceWL) setup(int64) error {
	var err error
	w.ops, err = traceOps()
	return err
}

// traceCounts are one traced run's layer counters.
type traceCounts struct {
	bytesEncrypted, pcieBytes, faultBatches, kernels, spans, exportBytes int64
}

func (w *traceWL) run(rec *recorder, lm map[string]float64, warm bool) []output {
	outs := make([]output, len(w.ops))
	counts := make([]traceCounts, len(w.ops))
	forEach(len(w.ops), w.workers, func(i int) {
		outs[i], counts[i] = w.traceOne(rec, i)
	})
	if warm {
		return outs
	}
	for _, c := range counts {
		lm["tdx.bytes_encrypted"] += float64(c.bytesEncrypted)
		lm["pcie.bytes_moved"] += float64(c.pcieBytes)
		lm["uvm.fault_batches"] += float64(c.faultBatches)
		lm["gpu.kernels_run"] += float64(c.kernels)
		lm["obs.spans"] += float64(c.spans)
		lm["obs.export_bytes"] += float64(c.exportBytes)
	}
	if rec != nil {
		lm["workloads.execute_ms.p50"] = ms(quantile(rec.durations("workloads.ExecuteObserved"), 0.5))
		lm["workloads.execute_ms.p99"] = ms(quantile(rec.durations("workloads.ExecuteObserved"), 0.99))
		lm["core.decompose_ms.p50"] = ms(quantile(rec.durations("core.Decompose"), 0.5))
		lm["core.decompose_ms.p99"] = ms(quantile(rec.durations("core.Decompose"), 0.99))
		lm["obs.export_s"] = sum(rec.durations("obs.ChromeTrace")).Seconds()
	}
	return outs
}

// traceOne runs op i the way hcctrace -trace does and digests what it
// printed and exported.
func (w *traceWL) traceOne(rec *recorder, i int) (output, traceCounts) {
	op := w.ops[i]
	root := rec.begin("hcctrace", 0, i+1)
	o := obs.New()
	id := rec.begin("workloads.ExecuteObserved", root, i+1)
	res := workloads.ExecuteObserved(op.spec, op.mode, op.cfg, o)
	rec.end(id)
	id = rec.begin("obs.ChromeTrace", root, i+1)
	chrome := o.ChromeTrace()
	rec.end(id)
	id = rec.begin("cuda.Runtime.Metrics", root, i+1)
	met := res.Runtime.Metrics()
	rec.end(id)
	id = rec.begin("core.Decompose", root, i+1)
	model := core.Decompose(res.Runtime.Tracer())
	rec.end(id)
	rec.end(root)

	h := sha256.New()
	h.Write(chrome)
	fmt.Fprintf(h, "\n%+v\n%s", met, model.String())
	rt := res.Runtime
	return output{op: op.name, digest: hex.EncodeToString(h.Sum(nil)[:16])}, traceCounts{
		bytesEncrypted: rt.Platform().Stats().BytesEncrypted,
		pcieBytes:      rt.Link().BytesMoved(pcie.H2D) + rt.Link().BytesMoved(pcie.D2H),
		faultBatches:   int64(rt.Device().UVM().Stats().FaultBatches),
		kernels:        int64(rt.Device().KernelsRun()),
		spans:          int64(o.Spans()),
		exportBytes:    int64(len(chrome)),
	}
}

// probe re-runs every application without an observer, on the same
// workers; the observed minus unobserved execute time is what recording
// costs.
func (w *traceWL) probe(rec *recorder, lm map[string]float64) {
	forEach(len(w.ops), w.workers, func(i int) {
		op := w.ops[i]
		id := rec.begin("workloads.Execute", 0, i+1)
		workloads.Execute(op.spec, op.mode, op.cfg)
		rec.end(id)
	})
	lm["obs.record_s"] = (sum(rec.durations("workloads.ExecuteObserved")) - sum(rec.durations("workloads.Execute"))).Seconds()
}

// forEach calls fn(i) for every i < n on up to workers goroutines and
// returns once every call has.
func forEach(n, workers int, fn func(int)) {
	idx := make(chan int)
	var wg sync.WaitGroup
	for range min(max(workers, 1), n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// --- host measurements --------------------------------------------------------

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapAllocBytes is the cumulative heap allocation volume of the process.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// rssKiB and peakRSSKiB read the process's current and peak resident set
// (VmRSS, VmHWM) from /proc/self/status; 0 where it is unavailable.
func rssKiB() int64     { return procStatusKiB("VmRSS:") }
func peakRSSKiB() int64 { return procStatusKiB("VmHWM:") }

func procStatusKiB(field string) int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field); ok {
			var kib int64
			fmt.Sscanf(strings.TrimSpace(rest), "%d", &kib)
			return kib
		}
	}
	return 0
}
