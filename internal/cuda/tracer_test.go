package cuda

import (
	"fmt"
	"testing"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/gpu"
	"hccsim/internal/obs"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

func TestTracerRequiresSetTracer(t *testing.T) {
	rt := New(sim.NewEngine(), config(t, "off"))
	expectPanic(t, "Tracer on an unrecorded runtime", func() { rt.Tracer() })
	expectPanic(t, "Metrics on an unrecorded runtime", func() { rt.Metrics() })
	tr := trace.New()
	rt.SetTracer(tr)
	if rt.Tracer() != tr {
		t.Fatal("Tracer does not return the attached recorder")
	}
}

// recordedApp exercises every recording site: allocations, synchronous,
// async and peer copies, plain and graph launches, UVM faults, prefetch and
// write-back, and both synchronizations.
func recordedApp(c *Context) {
	const n = 8 << 20
	h := c.MallocHost("h", n)
	p := c.HostBuffer("p", n)
	d := c.Malloc("d", n)
	peer := c.MallocOn(1, "peer", n)
	c.Memcpy(d, h, n)
	c.Memcpy(d, p, n)
	s := c.StreamCreate()
	c.MemcpyAsync(h, d, n, s)
	c.MemcpyPeer(peer, d, n)
	k := gpu.KernelSpec{Name: "k", Fixed: 50 * time.Microsecond}
	for i := 0; i < 4; i++ {
		c.Launch(k, s)
	}
	c.GraphCreate([]gpu.KernelSpec{k, k, k}).Launch(nil)
	s.Synchronize()
	m := c.MallocManaged("m", n)
	c.Prefetch(m, n/2)
	c.Launch(gpu.KernelSpec{Name: "uvm", Fixed: 10 * time.Microsecond,
		Managed: []gpu.ManagedAccess{{Range: m.Managed(), Bytes: n}}}, nil)
	c.Sync()
	c.HostTouch(m, n)
	c.Free(m)
	c.Free(peer)
	c.Free(d)
	c.FreeHost(h)
}

// TestTracingDoesNotMoveTiming runs the same app under every mode with and
// without a recorder: the engine clock and every published gauge must be
// identical, so recording is pure observation.
func TestTracingDoesNotMoveTiming(t *testing.T) {
	runOnce := func(mode string, traced bool) (sim.Time, string, int) {
		eng := sim.NewEngine()
		cfg := config(t, mode)
		rt := New(eng, cfg)
		var tr *trace.Tracer
		if traced {
			tr = trace.New()
			rt.SetTracer(tr)
		}
		rt.AddDevice(cfg.PCIe, cfg.HBM, cfg.GPU) // after SetTracer: inherits it
		o := obs.New()
		o.Bind(eng)
		rt.SetObserver(o)
		eng.Spawn("host", func(p *sim.Proc) { recordedApp(rt.Bind(p)) })
		end := eng.Run()
		rt.PublishMetrics()
		var gauges string
		o.Metrics().Each(func(mp obs.MetricPoint) {
			gauges += fmt.Sprintf("%s=%v/%d\n", mp.Name, mp.Value, mp.Count)
		})
		// Every layer must record once attached: host API (launch),
		// device (kernel) and UVM (fault batch).
		kinds := 0
		if traced {
			for _, k := range []trace.Kind{trace.KindLaunch, trace.KindKernel, trace.KindFaultBatch} {
				if len(tr.OfKind(k)) > 0 {
					kinds++
				}
			}
		}
		return end, gauges, kinds
	}
	for _, mode := range ccmode.Names() {
		endOff, gOff, _ := runOnce(mode, false)
		endOn, gOn, kinds := runOnce(mode, true)
		if endOff != endOn {
			t.Errorf("%s: engine clock %v untraced, %v traced", mode, endOff, endOn)
		}
		if gOff != gOn {
			t.Errorf("%s: gauges differ\nuntraced:\n%straced:\n%s", mode, gOff, gOn)
		}
		if kinds != 3 || gOn == "" {
			t.Errorf("%s: traced run recorded %d of launch/kernel/fault-batch kinds and gauges %q", mode, kinds, gOn)
		}
	}
}
