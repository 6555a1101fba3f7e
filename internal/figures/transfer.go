package figures

import (
	"fmt"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/sim"
	"hccsim/internal/swcrypto"
	"hccsim/internal/trace"
	"hccsim/internal/units"
	"hccsim/internal/workloads"
)

// Fig04aSizes are the transfer sizes of Fig. 4a (64 B to 1 GiB).
var Fig04aSizes = []int64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20, 1 << 30,
}

// measureBandwidth times one cudaMemcpy of n bytes in the given setting and
// returns GB/s (allocation time excluded, as bandwidth tests warm buffers).
func measureBandwidth(mode string, pinned, h2d bool, n int64) float64 {
	eng := sim.NewEngine()
	rt := cuda.New(eng, modeConfig(mode))
	var dur time.Duration
	eng.Spawn("bw", func(p *sim.Proc) {
		c := rt.Bind(p)
		var host *cuda.Buffer
		if pinned {
			host = c.MallocHost("h", n)
		} else {
			host = c.HostBuffer("h", n)
		}
		dev := c.Malloc("d", n)
		start := p.Now()
		if h2d {
			c.Memcpy(dev, host, n)
		} else {
			c.Memcpy(host, dev, n)
		}
		dur = time.Duration(p.Now() - start)
	})
	eng.Run()
	return float64(n) / dur.Seconds() / 1e9
}

// Fig04aBandwidth reproduces Fig. 4a: PCIe bandwidth vs transfer size for
// pageable/pinned memory with CC on and off.
func Fig04aBandwidth() Table {
	t := Table{
		ID:    "fig4a",
		Title: "H2D/D2H bandwidth (GB/s) vs size, pageable/pinned x base/cc",
		Columns: []string{"size", "pageable-h2d", "pinned-h2d", "cc-pageable-h2d",
			"cc-pinned-h2d", "pageable-d2h", "pinned-d2h", "cc-pageable-d2h", "cc-pinned-d2h"},
	}
	for _, n := range Fig04aSizes {
		t.AddRow(byteSize(n),
			measureBandwidth("off", false, true, n), measureBandwidth("off", true, true, n),
			measureBandwidth("tdx-h100", false, true, n), measureBandwidth("tdx-h100", true, true, n),
			measureBandwidth("off", false, false, n), measureBandwidth("off", true, false, n),
			measureBandwidth("tdx-h100", false, false, n), measureBandwidth("tdx-h100", true, false, n))
	}
	t.Notes = append(t.Notes,
		"paper: CC plateau ~3.03 GB/s just below single-core AES-GCM (3.36 GB/s)",
		"paper: pinned/pageable gap disappears under CC (Observation 1)")
	return t
}

// Fig04bCrypto reproduces Fig. 4b: single-core throughput of the candidate
// (de)cryption algorithms on the two calibrated CPUs, plus a live
// measurement on the build machine using this package's implementations.
func Fig04bCrypto(measureLocal bool) Table {
	t := Table{
		ID:      "fig4b",
		Title:   "Single-core crypto throughput (GB/s)",
		Columns: []string{"algorithm", "intel-emr", "nvidia-grace", "local-measured"},
	}
	for _, alg := range swcrypto.AllAlgorithms {
		local := "-"
		if measureLocal {
			if gbps, err := swcrypto.MeasureOnce(alg, 64<<10, 20*time.Millisecond); err == nil {
				local = fmt.Sprintf("%.2f", gbps)
			}
		}
		t.AddRow(string(alg),
			swcrypto.CalibratedGBps[swcrypto.IntelEMR][alg],
			swcrypto.CalibratedGBps[swcrypto.NVIDIAGrace][alg],
			local)
	}
	t.Notes = append(t.Notes,
		"paper anchors: EMR aes-128-gcm 3.36 GB/s, ghash up to 8.9 GB/s",
		"GHASH/GMAC trade confidentiality for throughput (Observation 2)",
		"local-measured column: this build machine; aes-gcm uses the stdlib's hardware path, the rest are this repo's pure-Go reference implementations (hence slow)")
	return t
}

// Fig05CopyTime reproduces Fig. 5: per-application copy time in base and CC
// modes, split by direction.
func Fig05CopyTime() Table {
	t := Table{
		ID:    "fig5",
		Title: "Copy time per application (ms), base vs CC",
		Columns: []string{"app", "base-h2d", "base-d2h", "base-d2d",
			"cc-h2d", "cc-d2h", "cc-d2d", "cc/base"},
	}
	var sum, worst float64
	worstApp := ""
	best := 1e18
	for _, spec := range workloads.All() {
		base, cc := runPair(spec, workloads.CopyExecute)
		mb, mc := base.Runtime.Metrics(), cc.Runtime.Metrics()
		tb := mb.CopyH2D + mb.CopyD2H + mb.CopyD2D
		tc := mc.CopyH2D + mc.CopyD2H + mc.CopyD2D
		ratio := ratioOf(tc, tb)
		t.AddRow(spec.Name, ms(mb.CopyH2D), ms(mb.CopyD2H), ms(mb.CopyD2D),
			ms(mc.CopyH2D), ms(mc.CopyD2H), ms(mc.CopyD2D), ratio)
		sum += ratio
		if ratio > worst {
			worst, worstApp = ratio, spec.Name
		}
		if ratio < best {
			best = ratio
		}
	}
	n := float64(len(workloads.All()))
	t.Notes = append(t.Notes,
		fmt.Sprintf("measured: avg %.2fx, min %.2fx, max %.2fx (%s); paper: avg 5.80x, min 1.17x, max 19.69x (2dconv)",
			sum/n, best, worst, worstApp),
		"CC pinned transfers surface as managed D2D events (Observation 1/3)")
	return t
}

// Fig06AllocFree reproduces Fig. 6: memory (de)allocation time per app.
func Fig06AllocFree() Table {
	t := Table{
		ID:    "fig6",
		Title: "Memory management time per application (ms), base vs CC",
		Columns: []string{"app", "base-hmalloc", "base-dmalloc", "base-free",
			"cc-hmalloc", "cc-dmalloc", "cc-free"},
	}
	var dmB, dmC, hmB, hmC, frB, frC time.Duration
	for _, spec := range workloads.All() {
		base, cc := runPair(spec, workloads.CopyExecute)
		hb, db, fb := allocSplit(base.Runtime)
		hc, dc, fc := allocSplit(cc.Runtime)
		t.AddRow(spec.Name, ms(hb), ms(db), ms(fb), ms(hc), ms(dc), ms(fc))
		hmB += hb
		hmC += hc
		dmB += db
		dmC += dc
		frB += fb
		frC += fc
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"measured: Dmalloc %.2fx, Hmalloc %.2fx, Free %.2fx; paper: 5.67x, 5.72x, 10.54x",
		ratioOf(dmC, dmB), ratioOf(hmC, hmB), ratioOf(frC, frB)))

	// Managed (UVM) allocation comparison, as in the text of Sec. VI-A.
	mb, mc := managedAllocTimes()
	t.Notes = append(t.Notes, fmt.Sprintf(
		"managed: cudaMallocManaged CC/base %.2fx (paper 5.43x), managed free CC/base %.2fx (paper 3.35x)",
		mb, mc))
	return t
}

func allocSplit(rt *cuda.Runtime) (hmalloc, dmalloc, free time.Duration) {
	for _, e := range rt.Tracer().Events() {
		switch e.Name {
		case "cudaMallocHost":
			hmalloc += e.Duration()
		case "cudaMalloc":
			dmalloc += e.Duration()
		case "cudaFree", "cudaFreeHost":
			free += e.Duration()
		}
	}
	return
}

// managedAllocTimes measures cudaMallocManaged and managed-free CC/base
// ratios directly.
func managedAllocTimes() (allocRatio, freeRatio float64) {
	measure := func(mode string) (alloc, free time.Duration) {
		eng := sim.NewEngine()
		rt := cuda.New(eng, modeConfig(mode))
		rt.SetTracer(trace.New())
		eng.Spawn("m", func(p *sim.Proc) {
			c := rt.Bind(p)
			c.Malloc("warm", 1<<20) // absorb context init
			b := c.MallocManaged("m", 256<<20)
			c.Free(b)
		})
		eng.Run()
		for _, e := range rt.Tracer().Events() {
			switch {
			case e.Name == "cudaMallocManaged":
				alloc = e.Duration()
			case e.Kind == trace.KindFree && e.Managed:
				free = e.Duration()
			}
		}
		return
	}
	aB, fB := measure("off")
	aC, fC := measure("tdx-h100")
	return ratioOf(aC, aB), ratioOf(fC, fB)
}

// ms renders a duration in milliseconds for a table cell.
//
//hcclint:unit MS
func ms(d time.Duration) float64 { return units.ToMS(d) }

func ratioOf(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func byteSize(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%dGiB", n>>30)
	case n >= 1<<20:
		return fmt.Sprintf("%dMiB", n>>20)
	case n >= 1<<10:
		return fmt.Sprintf("%dKiB", n>>10)
	}
	return fmt.Sprintf("%dB", n)
}
