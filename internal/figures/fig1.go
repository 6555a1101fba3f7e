package figures

import (
	"fmt"
	"strings"
	"time"

	"hccsim/internal/cuda"
	"hccsim/internal/gpu"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// Fig01Overview reproduces the paper's Fig. 1: the same end-to-end
// application timeline under baseline execution, confidential computing,
// and confidential computing with UVM — rendered as ASCII Gantt strips
// (alloc / copy / launch / kernel / fault / free lanes).
func Fig01Overview() Table {
	t := Table{
		ID:      "fig1",
		Title:   "End-to-end application timeline overview",
		Columns: []string{"setting", "total-ms", "alloc-ms", "copy-ms", "launch+queue-ms", "kernel-ms", "free-ms"},
	}
	const n = 64 << 20

	classic := func(c *cuda.Context) {
		h := c.HostBuffer("h", n)
		d := c.Malloc("d", n)
		c.Memcpy(d, h, n)
		for i := 0; i < 6; i++ {
			c.Launch(gpu.KernelSpec{Name: "k", Blocks: 2048, ThreadsPerBlock: 256,
				FLOPs: 3e10, MemBytes: 128 << 20}, nil)
		}
		c.Sync()
		c.Memcpy(h, d, n)
		c.Free(d)
	}
	managed := func(c *cuda.Context) {
		m := c.MallocManaged("m", n)
		for i := 0; i < 6; i++ {
			c.Launch(gpu.KernelSpec{Name: "k", Blocks: 2048, ThreadsPerBlock: 256,
				FLOPs: 3e10, MemBytes: 128 << 20,
				Managed: []gpu.ManagedAccess{{Range: m.Managed(), Bytes: n}}}, nil)
		}
		c.Sync()
		c.HostTouch(m, n)
		c.Free(m)
	}

	settings := []struct {
		name string
		mode string
		app  func(*cuda.Context)
	}{
		{"CC-off", "off", classic},
		{"CC-on", "tdx-h100", classic},
		{"CC-on UVM", "tdx-h100", managed},
	}
	for _, s := range settings {
		eng := sim.NewEngine()
		rt := cuda.New(eng, modeConfig(s.mode))
		rt.SetTracer(trace.New())
		eng.Spawn("fig1", func(p *sim.Proc) { s.app(rt.Bind(p)) })
		end := eng.Run()
		m := rt.Metrics()
		t.AddRow(s.name, ms(time.Duration(end)), ms(m.AllocTime),
			ms(m.CopyH2D+m.CopyD2H+m.CopyD2D), ms(m.KLO+m.LQT+m.KQT), ms(m.KET), ms(m.FreeTime))

		var sb strings.Builder
		if err := rt.Tracer().Gantt(&sb, 96); err == nil {
			t.Notes = append(t.Notes, fmt.Sprintf("%s timeline:\n%s", s.name, sb.String()))
		}
	}
	t.Notes = append(t.Notes,
		"columns are sums of per-operation components; queue waits overlap each other, so they can exceed the wall-clock total",
		"the paper's Fig 1 in ASCII: CC stretches alloc/copy/free and launch queuing; UVM under CC moves the cost inside the kernels as encrypted paging")
	return t
}
