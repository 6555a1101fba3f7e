package tdx

import (
	"hccsim/internal/ccmode"
	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
)

// Port adapts one (platform, link) pair to the ccmode.Port interface: the
// narrow view of the CPU substrate and the PCIe link that protection-mode
// copy and fault transforms act through. Each GPU gets its own Port (its
// own link), while the platform — and with it the crypto worker and bounce
// pool — is shared, both living on the host CPU.
type Port struct {
	pl   *Platform
	link *pcie.Link
}

// NewPort binds a platform and a link into a ccmode.Port.
func NewPort(pl *Platform, link *pcie.Link) Port {
	return Port{pl: pl, link: link}
}

var _ ccmode.Port = Port{}

// PCIeDirection maps a ccmode transfer direction onto the pcie package's.
func PCIeDirection(d ccmode.Direction) pcie.Direction {
	if d == ccmode.H2D {
		return pcie.H2D
	}
	return pcie.D2H
}

// CCDirection maps a pcie transfer direction onto the ccmode package's.
func CCDirection(d pcie.Direction) ccmode.Direction {
	if d == pcie.H2D {
		return ccmode.H2D
	}
	return ccmode.D2H
}

// Engine implements ccmode.Port.
func (pt Port) Engine() *sim.Engine { return pt.pl.eng }

// Observer implements ccmode.Port: the platform-wide observability layer,
// nil when tracing is off.
func (pt Port) Observer() *obs.Observer { return pt.pl.obs }

// ChunkFrames implements ccmode.Port: one pool per platform, shared by the
// ports of all its GPUs (the simulation is single-threaded).
func (pt Port) ChunkFrames() *ccmode.ChunkFrames { return &pt.pl.chunkFrames }

// Encrypt implements ccmode.Port.
func (pt Port) Encrypt(p *sim.Proc, n int64) { pt.pl.Encrypt(p, n) }

// Decrypt implements ccmode.Port.
func (pt Port) Decrypt(p *sim.Proc, n int64) { pt.pl.Decrypt(p, n) }

// BounceAcquire implements ccmode.Port.
func (pt Port) BounceAcquire(p *sim.Proc, n int64) { pt.pl.BounceAcquire(p, n) }

// BounceRelease implements ccmode.Port.
func (pt Port) BounceRelease(n int64) { pt.pl.BounceRelease(n) }

// HostMemcpy implements ccmode.Port.
func (pt Port) HostMemcpy(p *sim.Proc, n int64) { pt.pl.HostMemcpy(p, n) }

// DMA implements ccmode.Port via the full-duplex link.
func (pt Port) DMA(p *sim.Proc, d ccmode.Direction, n int64) {
	pt.link.Transfer(p, PCIeDirection(d), n)
}

// BridgeDMA implements ccmode.Port via the serialized encrypted bridge,
// derated to the platform's BridgeGBps with IDE latency per transaction.
func (pt Port) BridgeDMA(p *sim.Proc, d ccmode.Direction, n int64) {
	pt.link.BridgeTransfer(p, PCIeDirection(d), n, pt.pl.params.BridgeGBps, pt.pl.params.IDEPerTLP)
}

// EncryptA implements ccmode.Port.
func (pt Port) EncryptA(a *sim.Actor, n int64, step func(any), state any) {
	pt.pl.EncryptA(a, n, step, state)
}

// DecryptA implements ccmode.Port.
func (pt Port) DecryptA(a *sim.Actor, n int64, step func(any), state any) {
	pt.pl.DecryptA(a, n, step, state)
}

// BounceAcquireA implements ccmode.Port.
func (pt Port) BounceAcquireA(a *sim.Actor, n int64, step func(any), state any) {
	pt.pl.BounceAcquireA(a, n, step, state)
}

// HostMemcpyA implements ccmode.Port.
func (pt Port) HostMemcpyA(a *sim.Actor, n int64, step func(any), state any) {
	pt.pl.HostMemcpyA(a, n, step, state)
}

// DMAA implements ccmode.Port via the full-duplex link.
func (pt Port) DMAA(a *sim.Actor, d ccmode.Direction, n int64, step func(any), state any) {
	pt.link.TransferA(a, PCIeDirection(d), n, step, state)
}

// BridgeDMAA implements ccmode.Port via the serialized encrypted bridge.
func (pt Port) BridgeDMAA(a *sim.Actor, d ccmode.Direction, n int64, step func(any), state any) {
	pt.link.BridgeTransferA(a, PCIeDirection(d), n, pt.pl.params.BridgeGBps, pt.pl.params.IDEPerTLP, step, state)
}
