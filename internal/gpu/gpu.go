// Package gpu models the device side of the system: command channels fed by
// the in-guest driver, a command processor that dispatches work to engines,
// a serial compute engine with a roofline kernel-timing model, copy engines
// riding the PCIe link, and the CC-mode additions (encrypted command
// packets, bounce-buffered encrypted DMA).
//
// A channel carries its commands by value and reports completion through a
// per-channel fence, a monotone count of completed commands, the way GPU
// semaphores work: submitting returns a ticket, and waiting on a command is
// waiting for the fence to reach its ticket.
package gpu

import (
	"fmt"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/hbm"
	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
	"hccsim/internal/trace"
	"hccsim/internal/units"
	"hccsim/internal/uvm"
)

// Params holds the calibrated device constants (H100 NVL unless noted).
type Params struct {
	// SMs is the streaming-multiprocessor count (H100: 132).
	SMs int
	// ThreadsPerSM bounds resident threads for the occupancy estimate.
	ThreadsPerSM int
	// PeakFP32TFLOPs is the FP32 roofline ceiling.
	PeakFP32TFLOPs float64
	// TensorTFLOPs is the FP16/BF16 tensor-core ceiling, used by the NN models.
	TensorTFLOPs float64
	// DispatchBase is the command processor's per-command handling cost.
	DispatchBase time.Duration
	// CmdAuthCC is the extra per-command cost in CC mode: the command
	// processor must decrypt and authenticate the AES-GCM-protected packet
	// before dispatch. This is the mechanism behind the KQT amplification
	// the paper sees on few-launch applications.
	CmdAuthCC time.Duration
	// KernelFixedOverhead is per-kernel scheduling cost on the compute
	// engine (grid setup, block scheduling ramp).
	KernelFixedOverhead time.Duration
	// BlitGBps is device-to-device copy bandwidth through L2/HBM.
	BlitGBps float64
	// MaxConcurrentKernels bounds kernels resident at once across streams
	// (within one stream the channel FIFO serializes regardless).
	MaxConcurrentKernels int
	// ChunkBytes is the DMA chunk size for host<->device copies.
	ChunkBytes int64
}

// ManagedAccess declares that a kernel touches a UVM range.
type ManagedAccess struct {
	Range  *uvm.Range
	Offset int64 // start of the touched window (wraps at the range end)
	Bytes  int64 // footprint touched; capped at the range size
	Random bool  // random access defeats fault coalescing
}

// KernelSpec describes one kernel's work. Either Fixed is set (nanosleep
// microbenchmarks, Listing 1 of the paper) or the roofline inputs are.
type KernelSpec struct {
	Name            string
	Blocks          int
	ThreadsPerBlock int
	FLOPs           float64 // total floating-point operations
	MemBytes        int64   // HBM traffic
	Fixed           time.Duration
	// CodeBytes is the SASS/PTX module size uploaded on first launch; fused
	// kernels carry the sum of their parts (loop-unrolling parameter N_x in
	// the paper's microbenchmark controls exactly this).
	CodeBytes int64
	Managed   []ManagedAccess
}

// Fuse combines kernels into one: work and code size add, launch count
// drops to one. This is the source-level kernel fusion of Sec. VII-A.
func Fuse(name string, specs ...KernelSpec) KernelSpec {
	out := KernelSpec{Name: name}
	for _, s := range specs {
		out.FLOPs += s.FLOPs
		out.MemBytes += s.MemBytes
		out.Fixed += s.Fixed
		out.CodeBytes += s.CodeBytes
		if s.Blocks > out.Blocks {
			out.Blocks = s.Blocks
		}
		if s.ThreadsPerBlock > out.ThreadsPerBlock {
			out.ThreadsPerBlock = s.ThreadsPerBlock
		}
		out.Managed = append(out.Managed, s.Managed...)
	}
	return out
}

// Device is one GPU bound to a guest platform.
type Device struct {
	eng    *sim.Engine
	pl     *tdx.Platform
	link   *pcie.Link
	mode   ccmode.Mode
	port   ccmode.Port // boxed once, so copies do not allocate per call
	mem    *hbm.Allocator
	uvm    *uvm.Manager
	tracer *trace.Tracer // nil records nothing (SetTracer)
	params Params

	cmdproc  *sim.Resource // serializes command dispatch across channels
	compute  *sim.Resource // serial kernel execution
	channels []*Channel

	// obs is the attached observability layer, nil when tracing is off.
	obs *obs.Observer

	kernelsRun uint64
}

// New creates a device on the given substrates, recording no trace events
// until SetTracer. It panics on non-positive SM or chunk-size params, which
// have no physical meaning.
func New(eng *sim.Engine, pl *tdx.Platform, link *pcie.Link, mem *hbm.Allocator,
	uvmMgr *uvm.Manager, params Params) *Device {
	if params.SMs <= 0 || params.ChunkBytes <= 0 {
		panic("gpu: invalid params")
	}
	conc := params.MaxConcurrentKernels
	if conc < 1 {
		conc = 1
	}
	return &Device{
		eng: eng, pl: pl, link: link, mem: mem, uvm: uvmMgr,
		mode:    pl.Mode(),
		port:    tdx.NewPort(pl, link),
		params:  params,
		cmdproc: sim.NewResource(eng, 1).SetLabel("gpu-cmdproc"),
		compute: sim.NewResource(eng, conc).SetLabel("gpu-compute"),
	}
}

// SetTracer attaches the event recorder to the device and its UVM manager;
// kernels, async copies and fault batches completing afterwards are
// recorded. A nil tracer records nothing.
func (d *Device) SetTracer(t *trace.Tracer) {
	d.tracer = t
	d.uvm.SetTracer(t)
}

// SetObserver attaches the observability layer; channels created before
// and after the call all get a per-channel timeline.
func (d *Device) SetObserver(o *obs.Observer) {
	d.obs = o
	for _, ch := range d.channels {
		ch.trk = o.Track(fmt.Sprintf("gpu-ch%d", ch.id))
	}
}

// Params returns the device constants.
func (d *Device) Params() Params { return d.params }

// Mem returns the HBM allocator.
func (d *Device) Mem() *hbm.Allocator { return d.mem }

// UVM returns the unified-memory manager.
func (d *Device) UVM() *uvm.Manager { return d.uvm }

// KernelsRun returns the number of kernels executed.
func (d *Device) KernelsRun() uint64 { return d.kernelsRun }

// KernelTime returns the modelled execution duration of spec, excluding UVM
// fault servicing: Fixed if set, else the roofline bound scaled by an
// occupancy estimate, plus fixed scheduling overhead.
func (d *Device) KernelTime(spec KernelSpec) time.Duration {
	if spec.Fixed > 0 {
		return spec.Fixed
	}
	occ := 1.0
	if spec.Blocks > 0 && spec.ThreadsPerBlock > 0 {
		threads := float64(spec.Blocks * spec.ThreadsPerBlock)
		capacity := float64(d.params.SMs * d.params.ThreadsPerSM)
		if threads < capacity {
			occ = threads / capacity
			if occ < 0.02 {
				occ = 0.02 // even one block keeps some SMs busy
			}
		}
	}
	flopTime := spec.FLOPs / (d.params.PeakFP32TFLOPs * 1e12 * occ)
	memTime := units.StreamSec(spec.MemBytes, d.mem.Params().BandwidthGBps)
	t := flopTime
	if memTime > t {
		t = memTime
	}
	return d.params.KernelFixedOverhead + units.FromSec(t)
}

// dispatchCost is the command processor's per-command time: base handling
// plus, when the mode authenticates command packets, AES-GCM verification
// before dispatch.
func (d *Device) dispatchCost() time.Duration {
	c := d.params.DispatchBase
	if d.mode.CmdAuth() {
		c += d.params.CmdAuthCC
	}
	return c
}

// Channel is one GPFIFO command stream (a CUDA stream maps to one). Each
// channel is drained in FIFO order by its own processor loop — a
// run-to-completion actor state machine, since this is the hottest daemon
// in the simulator — while dispatch and the compute engine are shared
// across channels.
//
// Commands are stored by value in the channel's queue, and completion is a
// per-channel fence, the way GPU semaphores work: every Submit returns a
// ticket (the channel's submitted count after that command) and the
// command is complete once the fence's count reaches it. Exactly one
// command is ever being processed per channel and its state lives directly
// on the Channel, so a warm channel's submit→complete cycle allocates
// nothing.
type Channel struct {
	dev       *Device
	id        int
	q         *sim.Queue[command]
	fence     *sim.Fence // count of completed commands
	submitted uint64

	a       *sim.Actor
	cur     command   // kernel or copy in flight
	mai     int       // next managed access of the kernel in flight
	start   sim.Time  // engine-start time of the command in flight
	managed bool      // copy in flight was demoted to encrypted paging
	trk     obs.Track // this channel's timeline (zero when tracing is off)
	sp      obs.Span  // span of the command in flight
}

// NewChannel creates and starts a channel.
func (d *Device) NewChannel() *Channel {
	name := fmt.Sprintf("gpu-ch%d", len(d.channels))
	ch := &Channel{dev: d, id: len(d.channels),
		q:     sim.NewQueue[command](d.eng).SetLabel(name),
		fence: sim.NewFence(d.eng).SetLabel(name),
		trk:   d.obs.Track(name)}
	d.channels = append(d.channels, ch)
	d.eng.SpawnActorDaemon(name, func(a *sim.Actor) {
		ch.a = a
		chanNext(ch)
	})
	return ch
}

// ID returns the channel's index (stream id in traces).
func (ch *Channel) ID() int { return ch.id }

// Submitted returns the number of commands ever submitted: the ticket of
// the most recent one, or 0 if nothing was submitted.
func (ch *Channel) Submitted() uint64 { return ch.submitted }

// Completed returns the number of commands that have completed. Commands
// complete in submission order, so ticket t is complete once Completed() >= t.
func (ch *Channel) Completed() uint64 { return ch.fence.Completed() }

// Wait blocks p until the command with the given ticket has completed,
// returning without yielding if it already has. Every task waiting on one
// command resumes at its completion in the order it parked.
func (ch *Channel) Wait(p *sim.Proc, ticket uint64) { ch.fence.Wait(p, ticket) }

// cmdKind tags a channel command.
type cmdKind uint8

const (
	cmdKernel cmdKind = iota
	cmdCopy
	cmdMarker
	cmdWait
)

// command is one GPFIFO entry: a tagged struct carried by value, so a
// submit boxes nothing. Only the fields of its kind are set.
type command struct {
	kind cmdKind

	// cmdKernel
	spec    KernelSpec
	seq     int // correlation id shared with the launch event
	graphed bool

	// cmdCopy
	traceKind trace.Kind
	dir       pcie.Direction
	bytes     int64
	pinned    bool // host-side buffer was pinned (CC demotes to managed)

	// cmdMarker: stamp, if set, fires when the marker is reached.
	stamp *sim.Signal

	// cmdWait: stall until channel on completes command ticket.
	on     *Channel
	ticket uint64
}

// submit enqueues c and returns its ticket.
func (ch *Channel) submit(c command) uint64 {
	ch.q.Put(c)
	ch.submitted++
	return ch.submitted
}

// SubmitKernel enqueues a kernel; graphed nodes skip per-command
// authentication overhead after the first (the whole graph is one packet).
func (ch *Channel) SubmitKernel(spec KernelSpec, seq int, graphed bool) uint64 {
	return ch.submit(command{kind: cmdKernel, spec: spec, seq: seq, graphed: graphed})
}

// SubmitCopy enqueues an async copy.
func (ch *Channel) SubmitCopy(kind trace.Kind, dir pcie.Direction, bytes int64, pinned bool) uint64 {
	return ch.submit(command{kind: cmdCopy, traceKind: kind, dir: dir, bytes: bytes, pinned: pinned})
}

// SubmitMarker enqueues a synchronization marker that completes when every
// earlier command on the channel has completed; a non-nil stamp fires at
// that moment, recording the device time (CUDA events use it).
func (ch *Channel) SubmitMarker(stamp *sim.Signal) uint64 {
	return ch.submit(command{kind: cmdMarker, stamp: stamp})
}

// SubmitWait enqueues a dependency barrier: the channel stalls until
// channel on has completed the command with the given ticket (the device
// half of cudaStreamWaitEvent).
func (ch *Channel) SubmitWait(on *Channel, ticket uint64) uint64 {
	return ch.submit(command{kind: cmdWait, on: on, ticket: ticket})
}

// chanNext fetches the channel's next command — the top of the processor
// loop.
func chanNext(x any) {
	ch := x.(*Channel)
	ch.q.GetA(ch.a, chanDispatch, ch)
}

// chanComplete advances the channel's fence past the command in flight and
// fetches the next one.
func chanComplete(x any) {
	ch := x.(*Channel)
	ch.fence.Advance()
	chanNext(ch)
}

// chanDispatch routes one command to its engine chain, FIFO.
func chanDispatch(x any, c command) {
	ch := x.(*Channel)
	d := ch.dev
	switch c.kind {
	case cmdKernel:
		ch.cur = c
		cost := d.dispatchCost()
		if c.graphed {
			// Graph nodes after the first dispatch from on-device state.
			cost = d.params.DispatchBase / 4
		}
		d.cmdproc.UseA(ch.a, cost, kernelDispatched, ch)
	case cmdCopy:
		ch.cur = c
		d.cmdproc.UseA(ch.a, d.dispatchCost(), copyDispatched, ch)
	case cmdMarker:
		if c.stamp != nil {
			c.stamp.Fire()
		}
		chanComplete(ch)
	case cmdWait:
		c.on.fence.WaitA(ch.a, c.ticket, chanComplete, ch)
	}
}

func kernelDispatched(x any) {
	ch := x.(*Channel)
	ch.dev.compute.AcquireA(ch.a, kernelStarted, ch)
}

func kernelStarted(x any) {
	ch := x.(*Channel)
	ch.start = ch.a.Now()
	ch.mai = 0
	ch.sp = ch.trk.Begin(ch.cur.spec.Name)
	kernelFaults(ch)
}

// kernelFaults services the kernel's managed accesses one after another
// (fault time lands inside the kernel, as Nsight sees it), then runs the
// kernel itself.
func kernelFaults(x any) {
	ch := x.(*Channel)
	spec := &ch.cur.spec
	if ch.mai < len(spec.Managed) {
		ma := spec.Managed[ch.mai]
		ch.mai++
		ma.Range.GPUAccessAtA(ch.a, ma.Offset, ma.Bytes, ma.Random, kernelFaults, ch)
		return
	}
	ch.a.Sleep(ch.dev.KernelTime(*spec), kernelDone, ch)
}

func kernelDone(x any) {
	ch := x.(*Channel)
	d := ch.dev
	ch.sp.End()
	d.compute.Release()
	d.kernelsRun++
	d.tracer.Record(trace.Event{
		Kind: trace.KindKernel, Name: ch.cur.spec.Name, Stream: ch.id,
		Start: ch.start, End: ch.a.Now(), Seq: ch.cur.seq,
	})
	ch.cur = command{}
	chanComplete(ch)
}

func copyDispatched(x any) {
	ch := x.(*Channel)
	ch.start = ch.a.Now()
	ch.sp = ch.trk.Begin("memcpyAsync").Bytes(ch.cur.bytes)
	// Zero-byte copies (async D2D markers) complete inline, so the flag
	// must be down before the call; a real transfer always crosses at
	// least one DMA sleep, so the assignment lands before copyLanded runs.
	ch.managed = false
	ch.managed = ch.dev.TransferHDA(ch.a, ch.cur.dir, ch.cur.bytes, ch.cur.pinned, copyLanded, ch)
}

func copyLanded(x any) {
	ch := x.(*Channel)
	ch.sp.End()
	kind := ch.cur.traceKind
	if ch.managed {
		// Nsight labels CC "pinned" transfers as managed D2D.
		kind = trace.KindMemcpyD2D
	}
	ch.dev.tracer.Record(trace.Event{
		Kind: kind, Name: "memcpyAsync", Stream: ch.id,
		Start: ch.start, End: ch.a.Now(), Bytes: ch.cur.bytes, Managed: ch.managed,
	})
	ch.cur = command{}
	chanComplete(ch)
}

// TransferHD moves bytes between host and device memory, charging the
// calling process. The protection mode owns the copy-path transform
// (Sec. VI-A plus the extended modes):
//
//	off pinned:        direct chunked DMA at link rate.
//	off pageable:      staging memcpy + DMA per chunk.
//	tdx-h100 (any):    encrypt into the bounce buffer + DMA per chunk
//	                   (H2D), or DMA + decrypt (D2H). "Pinned" host memory
//	                   is demoted to this same encrypted-paging path, which
//	                   is why pinned and pageable converge in CC mode
//	                   (Observation 1); the return value reports that the
//	                   transfer should be labelled managed.
//	tee-io-*:          direct or serialized-bridge DMA (hardware IDE).
func (d *Device) TransferHD(p *sim.Proc, dir pcie.Direction, bytes int64, pinned bool) (managed bool) {
	if bytes <= 0 {
		return false
	}
	p.Await(func(a *sim.Actor, step func(any), state any) {
		managed = d.mode.TransferA(d.port, a, tdx.CCDirection(dir), bytes, d.params.ChunkBytes, pinned, step, state)
	})
	return managed
}

// TransferHDA is the continuation form of TransferHD; the managed flag is
// policy, not timing, so it is returned synchronously.
func (d *Device) TransferHDA(a *sim.Actor, dir pcie.Direction, bytes int64, pinned bool, step func(any), state any) (managed bool) {
	if bytes <= 0 {
		step(state)
		return false
	}
	return d.mode.TransferA(d.port, a, tdx.CCDirection(dir), bytes, d.params.ChunkBytes, pinned, step, state)
}

// TransferDD is a device-to-device blit through L2/HBM; CC does not touch it
// (HBM is inside the trust boundary).
func (d *Device) TransferDD(p *sim.Proc, bytes int64) {
	if bytes <= 0 {
		return
	}
	p.Sleep(2*time.Microsecond + units.StreamDuration(bytes, d.params.BlitGBps))
}

// TransferDDA is the continuation form of TransferDD.
func (d *Device) TransferDDA(a *sim.Actor, bytes int64, step func(any), state any) {
	if bytes <= 0 {
		step(state)
		return
	}
	a.Sleep(2*time.Microsecond+units.StreamDuration(bytes, d.params.BlitGBps), step, state)
}
