// Package pcie models the PCIe Gen5 x16 link between the host and the GPU:
// full-duplex DMA bandwidth with per-transaction latency, and the one-time
// SPDM session establishment CC uses to attest the device (PCIe 5.0 has no
// native IDE, so NVIDIA layers SPDM + AES-GCM on top).
package pcie

import (
	"time"

	"hccsim/internal/obs"
	"hccsim/internal/sim"
	"hccsim/internal/units"
)

// Direction of a transfer relative to the host.
type Direction int

// Transfer directions.
const (
	H2D Direction = iota // host to device
	D2H                  // device to host
)

func (d Direction) String() string {
	if d == H2D {
		return "H2D"
	}
	return "D2H"
}

// Params holds the calibrated link constants.
type Params struct {
	// EffectiveGBps is the achievable DMA rate per direction after
	// encoding/TLP/flow-control overheads (PCIe 5.0 x16 raw is 64 GB/s).
	EffectiveGBps float64
	// TransactionLatency is the fixed setup cost per DMA transaction
	// (descriptor fetch, engine kick, completion signalling).
	TransactionLatency time.Duration
	// SPDMSession is the one-time attestation/session-key establishment
	// cost when the GPU is bound to a TD in CC mode.
	SPDMSession time.Duration
}

// Link is the full-duplex PCIe connection. Each direction is an independent
// serial resource: concurrent DMAs in the same direction queue FIFO, while
// opposite directions proceed in parallel.
type Link struct {
	eng    *sim.Engine
	params Params
	dir    [2]*sim.Resource
	moved  [2]int64
	xfers  [2]uint64
	frames sim.FramePool[xferFrame]
	// bridge is the serialized encrypted CPU-GPU bridge used by TEE-IO
	// bridge modes: one capacity-1 resource spanning BOTH directions, so
	// H2D and D2H cannot overlap. Created lazily on first use.
	bridge *sim.Resource
	// trk holds the per-direction observability timelines and btrk the
	// bridge timeline; zero Tracks (tracing off) record nothing.
	trk  [2]obs.Track
	btrk obs.Track
}

// NewLink creates a link bound to the engine.
func NewLink(eng *sim.Engine, params Params) *Link {
	return &Link{
		eng:    eng,
		params: params,
		dir: [2]*sim.Resource{
			sim.NewResource(eng, 1).SetLabel("pcie-h2d"),
			sim.NewResource(eng, 1).SetLabel("pcie-d2h"),
		},
	}
}

// SetObserver attaches the observability layer, registering one timeline
// per DMA direction plus the serialized bridge (registered eagerly so
// track ordering never depends on which paths a run exercises).
func (l *Link) SetObserver(o *obs.Observer) {
	l.trk[H2D] = o.Track("pcie-h2d")
	l.trk[D2H] = o.Track("pcie-d2h")
	l.btrk = o.Track("pcie-bridge")
}

// Params returns the link constants.
func (l *Link) Params() Params { return l.params }

// TransferTime returns the modelled duration for n bytes in one transaction,
// excluding queuing.
func (l *Link) TransferTime(n int64) time.Duration {
	if n < 0 {
		n = 0
	}
	return l.params.TransactionLatency + units.StreamDuration(n, l.params.EffectiveGBps)
}

// xferFrame carries one in-flight TransferA/BridgeTransferA; recycled
// through the link's pool.
type xferFrame struct {
	l     *Link
	d     Direction
	n     int64
	sp    obs.Span
	step  func(any)
	state any
}

// TransferA moves n bytes in direction d, charging a queueing plus transfer
// time: acquire the directional DMA engine, hold it for TransferTime(n),
// release, then run step(state).
func (l *Link) TransferA(a *sim.Actor, d Direction, n int64, step func(any), state any) {
	f := l.frames.Get()
	f.l, f.d, f.n, f.step, f.state = l, d, n, step, state
	f.sp = l.trk[d].Begin("dma").Bytes(n)
	l.dir[d].UseA(a, l.TransferTime(n), xferDone, f)
}

func xferDone(x any) {
	f := x.(*xferFrame)
	f.sp.End()
	l, d, n, step, state := f.l, f.d, f.n, f.step, f.state
	l.frames.Put(f)
	l.moved[d] += n
	l.xfers[d]++
	step(state)
}

// BridgeTransferA moves n bytes through the serialized encrypted bridge
// ("The Serialized Bridge" model of Blackwell GPU-CC), then runs
// step(state): unlike TransferA, both directions contend for one resource,
// the achievable rate is derated to gbps, and each transaction pays perTLP
// of hardware IDE latency on top of the link's setup cost. A non-positive
// gbps falls back to the link's full-duplex rate (serialization without
// derating).
func (l *Link) BridgeTransferA(a *sim.Actor, d Direction, n int64, gbps float64, perTLP time.Duration, step func(any), state any) {
	if l.bridge == nil {
		l.bridge = sim.NewResource(l.eng, 1).SetLabel("pcie-bridge")
	}
	if gbps <= 0 {
		gbps = l.params.EffectiveGBps
	}
	if n < 0 {
		n = 0
	}
	t := l.params.TransactionLatency + perTLP + units.StreamDuration(n, gbps)
	f := l.frames.Get()
	f.l, f.d, f.n, f.step, f.state = l, d, n, step, state
	f.sp = l.btrk.Begin("bridge-dma").Bytes(n)
	l.bridge.UseA(a, t, xferDone, f)
}

// BridgeBusy returns the cumulative busy time of the serialized bridge
// (zero when no bridge transfer ever ran).
func (l *Link) BridgeBusy() time.Duration {
	if l.bridge == nil {
		return 0
	}
	return l.bridge.BusyTime()
}

// BytesMoved returns the cumulative bytes DMAed in direction d.
func (l *Link) BytesMoved(d Direction) int64 { return l.moved[d] }

// Transfers returns the number of DMA transactions completed in direction d.
func (l *Link) Transfers(d Direction) uint64 { return l.xfers[d] }

// Busy returns cumulative busy time of direction d, for utilization reports.
func (l *Link) Busy(d Direction) time.Duration { return l.dir[d].BusyTime() }

// EstablishSPDM charges the one-time SPDM attestation handshake.
func (l *Link) EstablishSPDM(p *sim.Proc) {
	p.Sleep(l.params.SPDMSession)
}
