package cuda

import (
	"fmt"
	"time"

	"hccsim/internal/gpu"
	"hccsim/internal/pcie"
	"hccsim/internal/trace"
)

// Launch is cudaLaunchKernel on the given stream (nil = default stream).
// The path mirrors the paper's Fig. 8 call stack:
//
//	cudaLaunchKernel
//	└─ runtime software (argument marshalling, pushbuffer build)
//	└─ [first launch ever] context/channel creation ioctls  — MMIO-heavy
//	└─ [first launch of this kernel] module upload over PCIe — dma_direct_alloc,
//	   set_memory_decrypted and encrypted copy under CC
//	└─ [CC] AES-GCM encryption of the command packet
//	└─ doorbell write (shared WC mapping: never traps)
//	└─ [every FenceInterval launches] fence read — MMIO, hypercall under CC
//
// The in-flight ring throttle and post-launch driver work happen OUTSIDE
// the API window and surface as LQT.
func (c *Context) Launch(spec gpu.KernelSpec, s *Stream) {
	if s == nil {
		s = c.def
	}
	rt := c.rt

	// Ring-window throttle: waits land in the inter-launch gap (LQT).
	s.throttle()

	c.ensureInit()
	apiStart := c.p.Now()
	c.p.Sleep(rt.params.LaunchSW)

	if !rt.moduleSeen[spec.Name] {
		rt.moduleSeen[spec.Name] = true
		c.uploadModule(spec)
	}
	if rt.mode.SoftwareCryptoPath() {
		c.p.Sleep(rt.params.LaunchEncSW) // AES-GCM over the command packet
	}
	c.p.Sleep(rt.params.DoorbellWrite)
	rt.launches++
	if rt.params.FenceInterval > 0 && rt.launches%rt.params.FenceInterval == 0 {
		rt.pl.MMIO(c.p) // fence read
	}

	seq := rt.tracer.NextSeq()
	rt.tracer.Record(trace.Event{
		Kind: trace.KindLaunch, Name: spec.Name, Stream: s.ID(),
		Start: apiStart, End: c.p.Now(), Seq: seq,
	})

	s.ch.SubmitKernel(spec, seq, false)

	// Deferred driver work after the API returns: fence bookkeeping and
	// reaping, heavier under CC. This is gap time (LQT), not KLO.
	c.p.Sleep(rt.mode.LaunchPost(rt.params.LaunchPostBase, rt.params.LaunchPostCC))
}

// uploadModule transfers the kernel's SASS image to the device on first
// launch — the first-launch KLO spike of Fig. 12a. Under CC the image is
// encrypted and staged like any other H2D transfer and the load ioctls
// become hypercalls.
func (c *Context) uploadModule(spec gpu.KernelSpec) {
	rt := c.rt
	bytes := spec.CodeBytes
	if bytes <= 0 {
		bytes = rt.params.ModuleBaseBytes
	}
	c.p.Sleep(rt.params.ModuleSW)
	rt.dev.TransferHD(c.p, pcie.H2D, bytes, false)
	c.mmio(rt.params.ModuleMMIOs)
}

// Graph is an instantiated CUDA graph: a batch of kernels submitted with a
// single launch (the launch-fusion optimization of Sec. VII-A).
type Graph struct {
	ctx   *Context
	specs []gpu.KernelSpec
}

// GraphCreate captures and instantiates a graph from the kernel sequence,
// charging the capture cost — the trade-off against saved launch overhead.
// It panics on an empty kernel sequence.
func (c *Context) GraphCreate(specs []gpu.KernelSpec) *Graph {
	if len(specs) == 0 {
		panic("cuda: empty graph")
	}
	c.p.Sleep(c.rt.params.GraphCreateSW +
		time.Duration(len(specs))*c.rt.params.GraphCreatePerNode)
	return &Graph{ctx: c, specs: specs}
}

// Launch submits the whole graph as one command packet: one launch API
// call, one KLO, then per-node dispatch on the device at reduced cost.
func (g *Graph) Launch(s *Stream) {
	c := g.ctx
	if s == nil {
		s = c.def
	}
	rt := c.rt
	s.throttle()

	c.ensureInit()
	apiStart := c.p.Now()
	c.p.Sleep(rt.params.LaunchSW)
	for _, spec := range g.specs {
		if !rt.moduleSeen[spec.Name] {
			rt.moduleSeen[spec.Name] = true
			c.uploadModule(spec)
		}
	}
	if rt.mode.SoftwareCryptoPath() {
		// One packet covers the whole graph.
		rt.pl.Encrypt(c.p, rt.params.CmdPacketBytes*int64(len(g.specs))/4)
	}
	c.p.Sleep(rt.params.DoorbellWrite)
	rt.launches++
	if rt.params.FenceInterval > 0 && rt.launches%rt.params.FenceInterval == 0 {
		rt.pl.MMIO(c.p)
	}

	seq := rt.tracer.NextSeq()
	rt.tracer.Record(trace.Event{
		Kind: trace.KindLaunch, Name: fmt.Sprintf("graph[%d]", len(g.specs)), Stream: s.ID(),
		Start: apiStart, End: c.p.Now(), Seq: seq,
	})
	for i, spec := range g.specs {
		s.ch.SubmitKernel(spec, seq, i > 0)
	}
	c.p.Sleep(rt.mode.LaunchPost(rt.params.LaunchPostBase, rt.params.LaunchPostCC))
}

// StackFrame is one level of the Fig. 8 launch call stack with its cost.
type StackFrame struct {
	Depth int
	Name  string
	Cost  time.Duration
}

// LaunchCallStack reports the steady-state launch path as a flame-graph
// style stack for the current mode — the reproduction of Fig. 8.
func (rt *Runtime) LaunchCallStack() []StackFrame {
	p := rt.params
	frames := []StackFrame{
		{0, "cudaLaunchKernel", 0},
		{1, "libcuda: cuLaunchKernel (marshal args, build pushbuffer)", p.LaunchSW},
	}
	if rt.mode.SoftwareCryptoPath() {
		frames = append(frames,
			StackFrame{1, "openssl: AES-GCM encrypt command packet", rt.pl.CryptoTime(p.CmdPacketBytes)})
	}
	if rt.CC() {
		frames = append(frames, StackFrame{1, "doorbell store (shared WC mapping)", p.DoorbellWrite})
	} else {
		frames = append(frames, StackFrame{1, "doorbell store (mapped BAR)", p.DoorbellWrite})
	}
	if rt.mode.MMIOTraps() {
		frames = append(frames,
			StackFrame{1, fmt.Sprintf("fence read via MMIO (1 in %d launches)", p.FenceInterval), 0},
			StackFrame{2, "#VE handler", 0},
			StackFrame{3, "tdx_hypercall (TDCALL -> SEAM)", rt.pl.Params().Hypercall / 2},
			StackFrame{4, "TDX module: context switch to host", rt.pl.Params().Hypercall / 4},
			StackFrame{5, "KVM/QEMU: MMIO emulation (dma_direct_alloc, set_memory_decrypted on slow path)", rt.pl.Params().Hypercall / 4},
		)
	} else {
		frames = append(frames,
			StackFrame{1, fmt.Sprintf("fence read via MMIO (1 in %d launches)", p.FenceInterval), rt.pl.Params().MMIODirect})
	}
	frames = append(frames, StackFrame{1, "post-launch driver bookkeeping",
		rt.mode.LaunchPost(p.LaunchPostBase, p.LaunchPostCC)})
	return frames
}
