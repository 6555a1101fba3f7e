package figures

import (
	"fmt"
	"time"

	"hccsim/internal/core"
	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// Fig12bFusionLevels are the launch counts of the fusion sweep: the same
// total kernel execution time and total code size, split over N launches.
var Fig12bFusionLevels = []int{2048, 1024, 512, 256, 128, 64, 32, 16, 8, 4, 2, 1}

// Fig12bFusion reproduces Fig. 12b: progressively fuse kernels (total KET
// and total SASS held constant) and watch KLO and LQT move in opposite
// directions — with many launches the per-launch overhead dominates, with
// one giant kernel the module upload does, so full fusion is suboptimal
// (Observation 7).
func Fig12bFusion() Table {
	t := Table{
		ID:    "fig12b",
		Title: "Kernel fusion sweep (total KET 5ms, total code 8MiB)",
		Columns: []string{"launches", "base-klo-ms", "base-lqt-ms", "base-total-ms",
			"cc-klo-ms", "cc-lqt-ms", "cc-total-ms"},
	}
	const totalKET = 5 * time.Millisecond
	const totalCode = int64(8 << 20)

	run := func(mode string, n int) (klo, lqt, total time.Duration) {
		eng := sim.NewEngine()
		rt := cuda.New(eng, modeConfig(mode))
		rt.SetTracer(trace.New())
		eng.Spawn("fusion", func(p *sim.Proc) {
			c := rt.Bind(p)
			c.Malloc("warm", 1<<20)
			start := p.Now()
			per := totalKET / time.Duration(n)
			code := totalCode / int64(n)
			for i := 0; i < n; i++ {
				spec := gpu.KernelSpec{
					Name:      fmt.Sprintf("fused%d.k%d", n, i),
					Fixed:     per,
					CodeBytes: code,
				}
				c.Launch(spec, nil)
			}
			c.Sync()
			total = time.Duration(p.Now() - start)
		})
		eng.Run()
		m := rt.Metrics()
		return m.KLO, m.LQT, total
	}

	var bestBase, bestCC int
	bestBaseT, bestCCT := time.Duration(1<<62), time.Duration(1<<62)
	for _, n := range Fig12bFusionLevels {
		bk, bl, bt := run("off", n)
		ck, cl, ct := run("tdx-h100", n)
		t.AddRow(n, ms(bk), ms(bl), ms(bt), ms(ck), ms(cl), ms(ct))
		if bt < bestBaseT {
			bestBaseT, bestBase = bt, n
		}
		if ct < bestCCT {
			bestCCT, bestCC = ct, n
		}
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("optimal fusion level: base N=%d, CC N=%d — neither extreme wins, and the CC optimum differs (Observation 7)", bestBase, bestCC))
	return t
}

// Fig12cStreams are the stream counts of the overlap sweep.
var Fig12cStreams = []int{1, 2, 4, 8, 16, 32, 64}

// Fig12cOverlap reproduces Fig. 12c (Listing 2): split a fixed transfer
// across S streams, pair each chunk with an independent nanosleep kernel,
// and measure total time plus the achieved copy-overlap coefficient alpha.
func Fig12cOverlap() Table {
	t := Table{
		ID:    "fig12c",
		Title: "Copy/compute overlap vs streams (Listing 2 microbenchmark)",
		Columns: []string{"transfer", "ket", "streams",
			"base-total-ms", "base-alpha", "cc-total-ms", "cc-alpha"},
	}
	run := func(mode string, totalBytes int64, ket time.Duration, streams int) (time.Duration, float64) {
		eng := sim.NewEngine()
		rt := cuda.New(eng, modeConfig(mode))
		rt.SetTracer(trace.New())
		var total time.Duration
		eng.Spawn("overlap", func(p *sim.Proc) {
			c := rt.Bind(p)
			chunk := totalBytes / int64(streams)
			h := c.MallocHost("h", chunk)
			var devs []*cuda.Buffer
			var ss []*cuda.Stream
			for i := 0; i < streams; i++ {
				devs = append(devs, c.Malloc(fmt.Sprintf("d%d", i), chunk))
				ss = append(ss, c.StreamCreate())
			}
			// Warm the kernel module so the sweep measures steady state.
			c.Launch(gpu.KernelSpec{Name: "sleepK", Fixed: time.Microsecond}, nil)
			c.Sync()
			start := p.Now()
			for i := 0; i < streams; i++ {
				c.MemcpyAsync(devs[i], h, chunk, ss[i])
				c.Launch(gpu.KernelSpec{Name: "sleepK", Fixed: ket, Blocks: 1, ThreadsPerBlock: 64}, ss[i])
			}
			c.Sync()
			total = time.Duration(p.Now() - start)
		})
		eng.Run()
		m := core.Decompose(rt.Tracer())
		return total, m.Alpha
	}
	for _, bytes := range []int64{512 << 20, 1 << 30} {
		for _, ket := range []time.Duration{time.Millisecond, 100 * time.Millisecond} {
			for _, s := range Fig12cStreams {
				bt, ba := run("off", bytes, ket, s)
				ct, ca := run("tdx-h100", bytes, ket, s)
				t.AddRow(byteSize(bytes), ket, s, ms(bt), ba, ms(ct), ca)
			}
		}
	}
	t.Notes = append(t.Notes,
		"overlap is harder under CC (single-threaded encryption serializes all streams) and with short kernels; raising the compute-to-IO ratio helps (Observation 8)")
	return t
}

// alphaOfTrace is a helper for tests: the fitted alpha of a trace.
func alphaOfTrace(tr *trace.Tracer) float64 { return core.Decompose(tr).Alpha }
