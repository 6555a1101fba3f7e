package cuda

import (
	"testing"
	"time"

	"hccsim/internal/gpu"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// run executes body as a host program on a fresh, traced system and
// returns the runtime for trace inspection.
func run(t *testing.T, mode string, body func(c *Context)) *Runtime {
	t.Helper()
	eng := sim.NewEngine()
	rt := New(eng, config(t, mode))
	rt.SetTracer(trace.New())
	eng.Spawn("host", func(p *sim.Proc) {
		body(rt.Bind(p))
	})
	eng.Run()
	return rt
}

// config is the Table I system under the named protection mode.
func config(t *testing.T, mode string) Config {
	t.Helper()
	cfg, err := NewConfig(mode)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// durOf sums durations of events with the given API name.
func durOf(rt *Runtime, name string) time.Duration {
	var d time.Duration
	for _, e := range rt.Tracer().Events() {
		if e.Name == name {
			d += e.Duration()
		}
	}
	return d
}

func TestMallocFreeRatios(t *testing.T) {
	const size = 256 << 20
	body := func(c *Context) {
		b := c.Malloc("buf", size)
		h := c.MallocHost("hbuf", size)
		m := c.MallocManaged("mbuf", size)
		c.Free(b)
		c.FreeHost(h)
		c.Free(m)
	}
	base := run(t, "off", body)
	cc := run(t, "tdx-h100", body)

	check := func(api string, lo, hi float64) {
		t.Helper()
		r := float64(durOf(cc, api)) / float64(durOf(base, api))
		if r < lo || r > hi {
			t.Errorf("%s CC/base ratio = %.2f, want in [%.1f, %.1f]", api, r, lo, hi)
		}
	}
	// Paper anchors: Dmalloc 5.67x, Hmalloc 5.72x, managed alloc 5.43x.
	check("cudaMalloc", 3.5, 9)
	check("cudaMallocHost", 3.5, 9)
	check("cudaMallocManaged", 3.5, 9)
}

func TestManagedAllocCheaperThanMalloc(t *testing.T) {
	// Paper: non-CC UVM allocation is 0.51x of cudaMalloc.
	rt := run(t, "off", func(c *Context) {
		c.Malloc("d", 512<<20)
		c.MallocManaged("m", 512<<20)
	})
	if durOf(rt, "cudaMallocManaged") >= durOf(rt, "cudaMalloc") {
		t.Fatalf("managed alloc (%v) not cheaper than cudaMalloc (%v)",
			durOf(rt, "cudaMallocManaged"), durOf(rt, "cudaMalloc"))
	}
}

func TestMemcpySyncRecordsAndCCSlower(t *testing.T) {
	const n = 64 << 20
	body := func(c *Context) {
		h := c.HostBuffer("h", n)
		d := c.Malloc("d", n)
		c.Memcpy(d, h, n)
		c.Memcpy(h, d, n)
		c.Free(d)
	}
	base := run(t, "off", body)
	cc := run(t, "tdx-h100", body)

	mb := base.Metrics()
	mc := cc.Metrics()
	if mb.CopyH2D <= 0 || mb.CopyD2H <= 0 {
		t.Fatalf("base copies not recorded: %+v", mb)
	}
	rH2D := float64(mc.CopyH2D) / float64(mb.CopyH2D)
	if rH2D < 2 {
		t.Fatalf("CC H2D only %.2fx slower", rH2D)
	}
}

func TestCCPinnedCopyBecomesManagedD2D(t *testing.T) {
	const n = 16 << 20
	cc := run(t, "tdx-h100", func(c *Context) {
		h := c.MallocHost("h", n)
		d := c.Malloc("d", n)
		c.Memcpy(d, h, n)
	})
	d2d := cc.Tracer().OfKind(trace.KindMemcpyD2D)
	if len(d2d) != 1 || !d2d[0].Managed {
		t.Fatalf("CC pinned copy not labelled managed D2D: %+v", d2d)
	}
	base := run(t, "off", func(c *Context) {
		h := c.MallocHost("h", n)
		d := c.Malloc("d", n)
		c.Memcpy(d, h, n)
	})
	if len(base.Tracer().OfKind(trace.KindMemcpyH2D)) != 1 {
		t.Fatal("non-CC pinned copy not recorded as H2D")
	}
}

func TestMemcpyValidation(t *testing.T) {
	run(t, "off", func(c *Context) {
		h := c.HostBuffer("h", 100)
		d := c.Malloc("d", 100)
		h2 := c.HostBuffer("h2", 100)
		expectPanic(t, "overflow", func() { c.Memcpy(d, h, 200) })
		expectPanic(t, "zero size", func() { c.Memcpy(d, h, 0) })
		expectPanic(t, "host-host", func() { c.Memcpy(h2, h, 50) })
		m := c.MallocManaged("m", 100)
		expectPanic(t, "managed", func() { c.Memcpy(d, m, 50) })
		c.Free(d)
		expectPanic(t, "freed", func() { c.Memcpy(d, h, 50) })
	})
}

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic: %s", what)
		}
	}()
	f()
}

func TestLaunchRecordsKLOAndKernel(t *testing.T) {
	rt := run(t, "off", func(c *Context) {
		c.Launch(gpu.KernelSpec{Name: "k", Fixed: time.Millisecond}, nil)
		c.Sync()
	})
	launches := rt.Tracer().OfKind(trace.KindLaunch)
	kernels := rt.Tracer().OfKind(trace.KindKernel)
	if len(launches) != 1 || len(kernels) != 1 {
		t.Fatalf("%d launches, %d kernels", len(launches), len(kernels))
	}
	if launches[0].Seq != kernels[0].Seq {
		t.Fatal("launch/kernel correlation ids differ")
	}
	if kernels[0].Start < launches[0].End {
		t.Fatal("kernel started before launch completed")
	}
}

func TestFirstLaunchSpike(t *testing.T) {
	rt := run(t, "off", func(c *Context) {
		for i := 0; i < 10; i++ {
			c.Launch(gpu.KernelSpec{Name: "k0", Fixed: 10 * time.Microsecond}, nil)
		}
		c.Launch(gpu.KernelSpec{Name: "k1", Fixed: 10 * time.Microsecond}, nil)
		c.Sync()
	})
	ls := rt.Tracer().OfKind(trace.KindLaunch)
	if len(ls) != 11 {
		t.Fatalf("%d launches", len(ls))
	}
	first, steady, newKernel := ls[0].Duration(), ls[5].Duration(), ls[10].Duration()
	if first < 5*steady {
		t.Fatalf("first launch (%v) not much slower than steady (%v)", first, steady)
	}
	// Launch 11 uploads k1's module: a fresh spike comparable to launch 1
	// (context init is charged to the first API call, not the launch).
	if newKernel < 3*steady {
		t.Fatalf("new-kernel launch %v vs steady %v", newKernel, steady)
	}
}

func TestSteadyStateKLORatioMatchesPaper(t *testing.T) {
	steadyKLO := func(mode string) time.Duration {
		rt := run(t, mode, func(c *Context) {
			for i := 0; i < 200; i++ {
				c.Launch(gpu.KernelSpec{Name: "k", Fixed: 5 * time.Microsecond}, nil)
			}
			c.Sync()
		})
		ls := rt.Tracer().OfKind(trace.KindLaunch)
		var sum time.Duration
		for _, l := range ls[1:] { // skip first-launch spike
			sum += l.Duration()
		}
		return sum / time.Duration(len(ls)-1)
	}
	base := steadyKLO("off")
	cc := steadyKLO("tdx-h100")
	ratio := float64(cc) / float64(base)
	// Steady-state launches (no module uploads) see a mild CC tax from the
	// packet encryption and amortized fence hypercalls; the suite-level
	// average including first-launch module uploads is what lands on the
	// paper's 1.42x (checked by the Fig. 7 generator test).
	if ratio < 1.03 || ratio > 1.6 {
		t.Fatalf("steady KLO ratio %.2f (base %v, cc %v)", ratio, base, cc)
	}
}

func TestRingThrottleCreatesLQT(t *testing.T) {
	rt := run(t, "off", func(c *Context) {
		for i := 0; i < 200; i++ {
			c.Launch(gpu.KernelSpec{Name: "k", Fixed: 200 * time.Microsecond}, nil)
		}
		c.Sync()
	})
	m := rt.Metrics()
	// 200 long kernels through a 64-slot ring: the host must stall.
	if m.LQT < 10*time.Millisecond {
		t.Fatalf("LQT %v too small for a saturated ring", m.LQT)
	}
}

func TestKQTAmplifiedUnderCC(t *testing.T) {
	kqt := func(mode string) time.Duration {
		rt := run(t, mode, func(c *Context) {
			c.Launch(gpu.KernelSpec{Name: "k", Fixed: time.Millisecond}, nil)
			c.Launch(gpu.KernelSpec{Name: "k", Fixed: time.Millisecond}, nil)
			c.Sync()
		})
		return rt.Metrics().KQT
	}
	base := kqt("off")
	cc := kqt("tdx-h100")
	if cc <= base {
		t.Fatalf("KQT not amplified: base %v, cc %v", base, cc)
	}
}

func TestAsyncOverlapAcrossStreams(t *testing.T) {
	const n = 512 << 20
	elapsed := func(overlap bool) time.Duration {
		var end time.Duration
		run(t, "off", func(c *Context) {
			h := c.MallocHost("h", n)
			d := c.Malloc("d", n)
			start := c.Proc().Now()
			if overlap {
				s1 := c.StreamCreate()
				s2 := c.StreamCreate()
				c.Launch(gpu.KernelSpec{Name: "k", Fixed: 50 * time.Millisecond}, s1)
				c.MemcpyAsync(d, h, n, s2)
				c.Sync()
			} else {
				c.Launch(gpu.KernelSpec{Name: "k", Fixed: 50 * time.Millisecond}, nil)
				c.Sync()
				c.Memcpy(d, h, n)
			}
			end = time.Duration(c.Proc().Now() - start)
		})
		return end
	}
	serial := elapsed(false)
	overlapped := elapsed(true)
	if overlapped >= serial {
		t.Fatalf("overlap (%v) not faster than serial (%v)", overlapped, serial)
	}
}

func TestGraphLaunchReducesLaunchCount(t *testing.T) {
	specs := make([]gpu.KernelSpec, 32)
	for i := range specs {
		specs[i] = gpu.KernelSpec{Name: "gk", Fixed: 20 * time.Microsecond}
	}
	rt := run(t, "off", func(c *Context) {
		g := c.GraphCreate(specs)
		g.Launch(nil)
		c.Sync()
	})
	if got := len(rt.Tracer().OfKind(trace.KindLaunch)); got != 1 {
		t.Fatalf("graph produced %d launch events, want 1", got)
	}
	if got := len(rt.Tracer().OfKind(trace.KindKernel)); got != 32 {
		t.Fatalf("graph ran %d kernels, want 32", got)
	}
}

func TestGraphFasterThanLoopForManyShortKernels(t *testing.T) {
	specs := make([]gpu.KernelSpec, 100)
	for i := range specs {
		specs[i] = gpu.KernelSpec{Name: "gk", Fixed: 5 * time.Microsecond}
	}
	elapsed := func(graph bool) time.Duration {
		var end time.Duration
		run(t, "tdx-h100", func(c *Context) {
			// Warm the module and context outside the measured region.
			c.Launch(gpu.KernelSpec{Name: "gk", Fixed: time.Microsecond}, nil)
			c.Sync()
			start := c.Proc().Now()
			if graph {
				g := c.GraphCreate(specs)
				g.Launch(nil)
			} else {
				for _, s := range specs {
					c.Launch(s, nil)
				}
			}
			c.Sync()
			end = time.Duration(c.Proc().Now() - start)
		})
		return end
	}
	loop := elapsed(false)
	graph := elapsed(true)
	if graph >= loop {
		t.Fatalf("graph launch (%v) not faster than loop (%v) under CC", graph, loop)
	}
}

func TestUVMKernelEndToEnd(t *testing.T) {
	elapsed := func(mode string) time.Duration {
		var end time.Duration
		run(t, mode, func(c *Context) {
			m := c.MallocManaged("m", 32<<20)
			spec := gpu.KernelSpec{Name: "uvmk", Fixed: 100 * time.Microsecond,
				Managed: []gpu.ManagedAccess{{Range: m.Managed(), Bytes: 32 << 20}}}
			start := c.Proc().Now()
			c.Launch(spec, nil)
			c.Sync()
			c.HostTouch(m, 32<<20)
			end = time.Duration(c.Proc().Now() - start)
			c.Free(m)
		})
		return end
	}
	base := elapsed("off")
	cc := elapsed("tdx-h100")
	if ratio := float64(cc) / float64(base); ratio < 3 {
		t.Fatalf("UVM end-to-end CC ratio %.2f too small (%v vs %v)", ratio, cc, base)
	}
}

func TestCallStackShapes(t *testing.T) {
	base := run(t, "off", func(c *Context) {})
	cc := run(t, "tdx-h100", func(c *Context) {})
	fb := base.LaunchCallStack()
	fc := cc.LaunchCallStack()
	if len(fc) <= len(fb) {
		t.Fatalf("CC call stack (%d frames) not deeper than base (%d)", len(fc), len(fb))
	}
	foundHypercall := false
	for _, f := range fc {
		if f.Depth >= 3 {
			foundHypercall = true
		}
	}
	if !foundHypercall {
		t.Fatal("CC stack missing TDX frames")
	}
}

func TestFreeValidation(t *testing.T) {
	run(t, "off", func(c *Context) {
		h := c.MallocHost("h", 100)
		expectPanic(t, "Free on pinned", func() { c.Free(h) })
		c.FreeHost(h)
		expectPanic(t, "double FreeHost", func() { c.FreeHost(h) })
		d := c.Malloc("d", 100)
		expectPanic(t, "FreeHost on device", func() { c.FreeHost(d) })
		c.Free(d)
		expectPanic(t, "double Free", func() { c.Free(d) })
	})
}

func TestStreamSynchronize(t *testing.T) {
	rt := run(t, "off", func(c *Context) {
		s := c.StreamCreate()
		c.Launch(gpu.KernelSpec{Name: "k", Fixed: 7 * time.Millisecond}, s)
		s.Synchronize()
		if now := time.Duration(c.Proc().Now()); now < 7*time.Millisecond {
			t.Errorf("StreamSynchronize returned at %v before kernel end", now)
		}
	})
	if n := len(rt.Tracer().OfKind(trace.KindSync)); n != 1 {
		t.Fatalf("%d sync events", n)
	}
}

func TestHBMAccountingThroughAPI(t *testing.T) {
	rt := run(t, "off", func(c *Context) {
		b := c.Malloc("d", 1<<30)
		if rt := c.Runtime(); rt.Device().Mem().Used() < 1<<30 {
			t.Errorf("HBM used = %d after 1GiB alloc", rt.Device().Mem().Used())
		}
		c.Free(b)
	})
	if rt.Device().Mem().Used() != 0 {
		t.Fatalf("HBM leaked: %d bytes", rt.Device().Mem().Used())
	}
}

func TestEventsTimeKernels(t *testing.T) {
	run(t, "off", func(c *Context) {
		start := c.EventCreate()
		stop := c.EventCreate()
		start.Record(nil)
		c.Launch(gpu.KernelSpec{Name: "k", Fixed: 10 * time.Millisecond}, nil)
		stop.Record(nil)
		stop.Synchronize()
		if !start.Completed() || !stop.Completed() {
			t.Fatal("events not completed after synchronize")
		}
		// The measured interval covers the kernel (plus dispatch overhead).
		el := Elapsed(start, stop)
		if el < 10*time.Millisecond || el > 11*time.Millisecond {
			t.Fatalf("event-timed kernel = %v, want ~10ms", el)
		}
	})
}

func TestEventMisuse(t *testing.T) {
	run(t, "off", func(c *Context) {
		e := c.EventCreate()
		expectPanic(t, "unrecorded synchronize", func() { e.Synchronize() })
		if e.Completed() {
			t.Error("unrecorded event reports completed")
		}
		e.Record(nil)
		// No work before it: fires after queue drain.
		e.Synchronize()
		_ = e.At()
	})
}

func TestMemsetOnDeviceAndValidation(t *testing.T) {
	base := run(t, "off", func(c *Context) {
		d := c.Malloc("d", 1<<30)
		c.Memset(d, 1<<30)
		c.Free(d)
	})
	cc := run(t, "tdx-h100", func(c *Context) {
		d := c.Malloc("d", 1<<30)
		c.Memset(d, 1<<30)
		c.Free(d)
	})
	// The fill itself is on-device: only the MMIO kick differs under CC.
	var fb, fc time.Duration
	for _, e := range base.Tracer().Events() {
		if e.Name == "cudaMemset" {
			fb = e.Duration()
		}
	}
	for _, e := range cc.Tracer().Events() {
		if e.Name == "cudaMemset" {
			fc = e.Duration()
		}
	}
	if fb <= 0 || fc <= 0 {
		t.Fatal("memset events missing")
	}
	if diff := fc - fb; diff > 15*time.Microsecond {
		t.Fatalf("CC memset overhead %v too large for an on-device fill", diff)
	}
	run(t, "off", func(c *Context) {
		h := c.HostBuffer("h", 100)
		expectPanic(t, "memset host buffer", func() { c.Memset(h, 100) })
		d := c.Malloc("d", 100)
		expectPanic(t, "memset overflow", func() { c.Memset(d, 200) })
	})
}

func TestMultiGPUPeerTransfer(t *testing.T) {
	const n = 256 << 20
	elapsed := func(mode string, nvlink bool) time.Duration {
		eng := sim.NewEngine()
		cfg := config(t, mode)
		rt := New(eng, cfg)
		rt.AddDevice(cfg.PCIe, cfg.HBM, cfg.GPU)
		if nvlink {
			rt.SetNVLink(cfg.NVLink)
		}
		var total time.Duration
		eng.Spawn("host", func(p *sim.Proc) {
			c := rt.Bind(p)
			a := c.MallocOn(0, "a", n)
			b := c.MallocOn(1, "b", n)
			start := p.Now()
			c.MemcpyPeer(b, a, n)
			total = time.Duration(p.Now() - start)
			c.Free(a)
			c.Free(b)
		})
		eng.Run()
		return total
	}

	baseStaged := elapsed("off", false)
	ccStaged := elapsed("tdx-h100", false)
	baseNV := elapsed("off", true)
	ccNV := elapsed("tdx-h100", true)

	// Host-staged peer copies pay double crypto under CC.
	if ratio := float64(ccStaged) / float64(baseStaged); ratio < 5 {
		t.Fatalf("CC host-staged peer copy only %.1fx slower", ratio)
	}
	// NVLink is fast and CC-neutral (inside the attested TCB).
	if baseNV >= baseStaged/5 {
		t.Fatalf("NVLink (%v) not much faster than staged (%v)", baseNV, baseStaged)
	}
	diff := float64(ccNV-baseNV) / float64(baseNV)
	if diff > 0.05 {
		t.Fatalf("NVLink peer copy %v%% slower under CC; should be neutral", 100*diff)
	}
}

func TestMultiGPUValidation(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config(t, "off")
	rt := New(eng, cfg)
	rt.AddDevice(cfg.PCIe, cfg.HBM, cfg.GPU)
	if rt.Devices() != 2 {
		t.Fatalf("Devices() = %d", rt.Devices())
	}
	eng.Spawn("host", func(p *sim.Proc) {
		c := rt.Bind(p)
		a := c.MallocOn(0, "a", 100)
		a2 := c.MallocOn(0, "a2", 100)
		expectPanic(t, "same device", func() { c.MemcpyPeer(a2, a, 100) })
		expectPanic(t, "bad device id", func() { c.MallocOn(7, "x", 100) })
		b := c.MallocOn(1, "b", 100)
		expectPanic(t, "overflow", func() { c.MemcpyPeer(b, a, 200) })
		h := c.HostBuffer("h", 100)
		expectPanic(t, "host buffer", func() { c.MemcpyPeer(b, h, 50) })
	})
	eng.Run()
}

func TestMultiGPUFreeReleasesRightDevice(t *testing.T) {
	eng := sim.NewEngine()
	cfg := config(t, "off")
	rt := New(eng, cfg)
	rt.AddDevice(cfg.PCIe, cfg.HBM, cfg.GPU)
	eng.Spawn("host", func(p *sim.Proc) {
		c := rt.Bind(p)
		b := c.MallocOn(1, "b", 1<<20)
		c.Free(b)
	})
	eng.Run()
	dev1, _, _ := rt.deviceByID(1)
	if dev1.Mem().Used() != 0 {
		t.Fatalf("device 1 leaked %d bytes", dev1.Mem().Used())
	}
	if rt.Device().Mem().Used() != 0 {
		t.Fatalf("device 0 unexpectedly holds %d bytes", rt.Device().Mem().Used())
	}
}

func TestStreamWaitEventOrdersAcrossStreams(t *testing.T) {
	rt := run(t, "off", func(c *Context) {
		producer := c.StreamCreate()
		consumer := c.StreamCreate()
		ready := c.EventCreate()

		c.Launch(gpu.KernelSpec{Name: "produce", Fixed: 10 * time.Millisecond}, producer)
		ready.Record(producer)
		consumer.WaitEvent(ready)
		c.Launch(gpu.KernelSpec{Name: "consume", Fixed: time.Millisecond}, consumer)
		c.Sync()
	})
	var produceEnd, consumeStart sim.Time
	for _, e := range rt.Tracer().OfKind(trace.KindKernel) {
		switch e.Name {
		case "produce":
			produceEnd = e.End
		case "consume":
			consumeStart = e.Start
		}
	}
	if consumeStart < produceEnd {
		t.Fatalf("consumer started at %v before producer finished at %v", consumeStart, produceEnd)
	}
}

func TestWaitEventUnrecordedPanics(t *testing.T) {
	run(t, "off", func(c *Context) {
		s := c.StreamCreate()
		e := c.EventCreate()
		expectPanic(t, "unrecorded wait", func() { s.WaitEvent(e) })
	})
}
