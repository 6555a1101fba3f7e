// Package uvm models NVIDIA Unified Virtual Memory: managed allocations
// whose pages migrate on demand between host and device.
//
// A GPU access to a non-resident page raises a far fault in the GMMU; the
// fault is forwarded to the CPU-side UVM driver (20-50 us service latency
// per the literature), which migrates the pages over PCIe. The driver
// coalesces neighbouring faults and prefetches, so in non-CC mode pages move
// in large batches. Under confidential computing the same path becomes
// "encrypted paging": each migration must be staged through the bounce
// buffer and encrypted in software, the fault round-trip pays extra
// hypercalls, and the large-batch prefetch degrades to small batches —
// which is why UVM kernels slow down by orders of magnitude under CC while
// non-UVM kernels are untouched (Observation 5).
package uvm

import (
	"fmt"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/obs"
	"hccsim/internal/pcie"
	"hccsim/internal/sim"
	"hccsim/internal/tdx"
	"hccsim/internal/trace"
)

// Params holds the calibrated constants of the paging path.
type Params struct {
	// PageBytes is the UVM migration granule (NVIDIA uses 64 KiB basic pages).
	PageBytes int64
	// FaultService is the GPU-fault -> CPU-driver round trip per batch.
	FaultService time.Duration
	// BatchPages is the pages moved per fault batch in non-CC mode, where
	// the driver's density prefetcher coalesces up to 2 MiB.
	BatchPages int
	// BatchPagesCC is the batch size under encrypted paging; staging through
	// the bounce buffer defeats the prefetcher's large transfers.
	BatchPagesCC int
	// CCFaultHypercalls counts the extra TD exits per batch under CC (fault
	// forwarding and bounce-buffer setup are host-mediated).
	CCFaultHypercalls int
	// RandomPenalty divides the batch size for random-access patterns,
	// which defeat fault coalescing even without CC.
	RandomPenalty int
}

// Stats aggregates paging activity.
type Stats struct {
	FaultBatches  uint64
	PagesMigrated int64
	BytesToGPU    int64
	BytesToHost   int64
	Evictions     int64
}

// Manager owns every managed range of one GPU context.
type Manager struct {
	eng    *sim.Engine
	pl     *tdx.Platform
	link   *pcie.Link
	mode   ccmode.Mode
	port   ccmode.Port // boxed once, so migrations do not allocate per call
	params Params
	tracer *trace.Tracer // fault batches are recorded when set; nil records nothing
	trk    obs.Track     // paging timeline; the zero Track when tracing is off

	ranges        []*Range
	residentBytes int64
	residentLimit int64 // 0 = unlimited
	clock         int64 // LRU clock for eviction
	stats         Stats

	accFrames sim.FramePool[accessFrame]
	migFrames sim.FramePool[migrateFrame]
	evFrames  sim.FramePool[evictFrame]
	pfFrames  sim.FramePool[prefetchFrame]
	wbFrames  sim.FramePool[writebackFrame]
}

// NewManager creates a UVM manager on the given substrates. It panics on
// non-positive page or batch-size params.
func NewManager(eng *sim.Engine, pl *tdx.Platform, link *pcie.Link, params Params) *Manager {
	if params.PageBytes <= 0 || params.BatchPages <= 0 || params.BatchPagesCC <= 0 {
		panic("uvm: invalid params")
	}
	return &Manager{eng: eng, pl: pl, link: link,
		mode: pl.Mode(), port: tdx.NewPort(pl, link), params: params}
}

// SetTracer attaches a tracer; subsequent fault batches are recorded. A
// nil tracer records nothing.
func (m *Manager) SetTracer(t *trace.Tracer) { m.tracer = t }

// SetObserver attaches the observability layer; fault batches, prefetches
// and write-backs open spans on the "uvm" timeline.
func (m *Manager) SetObserver(o *obs.Observer) { m.trk = o.Track("uvm") }

// SetResidentLimit caps device-resident managed bytes; exceeding it evicts
// least-recently-used ranges page ranges.
func (m *Manager) SetResidentLimit(n int64) { m.residentLimit = n }

// Stats returns a snapshot of the paging counters.
func (m *Manager) Stats() Stats { return m.stats }

// ResidentBytes returns managed bytes currently on the device.
func (m *Manager) ResidentBytes() int64 { return m.residentBytes }

// Params returns the paging constants.
func (m *Manager) Params() Params { return m.params }

// Range is one managed allocation.
type Range struct {
	mgr       *Manager
	size      int64
	resident  []bool
	onGPU     int64 // resident page count
	lastTouch int64 // LRU clock value
	released  bool
}

// NewRange registers a managed allocation of the given size; non-positive
// sizes panic.
func (m *Manager) NewRange(size int64) *Range {
	if size <= 0 {
		panic("uvm: managed range size must be positive")
	}
	pages := (size + m.params.PageBytes - 1) / m.params.PageBytes
	r := &Range{mgr: m, size: size, resident: make([]bool, pages)}
	m.ranges = append(m.ranges, r)
	return r
}

// Size returns the range's byte size.
func (r *Range) Size() int64 { return r.size }

// ResidentPages returns how many of the range's pages are on the GPU.
func (r *Range) ResidentPages() int64 { return r.onGPU }

// Pages returns the total page count of the range.
func (r *Range) Pages() int64 { return int64(len(r.resident)) }

// Release drops the range: resident pages are discarded (the caller models
// any free-time cost; see cuda.Free). A double release panics.
func (r *Range) Release() {
	if r.released {
		panic("uvm: double release")
	}
	r.released = true
	r.mgr.residentBytes -= r.onGPU * r.mgr.params.PageBytes
	r.onGPU = 0
	for i := range r.resident {
		r.resident[i] = false
	}
}

// batchSize returns pages-per-batch for the current mode and pattern: the
// protection mode owns the fault-batch transform (encrypted paging defeats
// the density prefetcher's coalescing).
func (m *Manager) batchSize(random bool) int {
	b := m.mode.FaultBatch(m.params.BatchPages, m.params.BatchPagesCC)
	if random && m.params.RandomPenalty > 1 {
		b = b / m.params.RandomPenalty
	}
	if b < 1 {
		b = 1
	}
	return b
}

// GPUAccess charges the calling process for a GPU-side access touching the
// first `bytes` of the range (streaming) or `bytes` worth of scattered pages
// (random). See GPUAccessAt.
func (r *Range) GPUAccess(p *sim.Proc, bytes int64, random bool) {
	r.GPUAccessAt(p, 0, bytes, random)
}

// GPUAccessAt charges a GPU-side access to the window [off, off+bytes) of
// the range (wrapping at the end). Non-resident pages fault in via batched
// migrations; resident pages are free. This is called by the compute engine
// while a kernel runs, so migration time lands inside the kernel's
// execution (exactly how Nsight sees UVM kernels). Accessing a released
// range panics.
func (r *Range) GPUAccessAt(p *sim.Proc, off, bytes int64, random bool) {
	p.Await(func(a *sim.Actor, step func(any), state any) {
		r.GPUAccessAtA(a, off, bytes, random, step, state)
	})
}

// accessFrame drives one GPUAccessAtA batch loop; recycled through the
// manager's pool.
type accessFrame struct {
	m       *Manager
	a       *sim.Actor
	r       *Range
	missing []int
	start   int
	batch   int
	step    func(any)
	state   any
}

// GPUAccessAtA is the continuation form of GPUAccessAt, used by the GPU
// command-processor actor while a kernel runs. Residency checks happen
// synchronously; when every page is resident, step(state) runs inline.
// Like GPUAccessAt it panics on an access to a released range — the
// modelled use-after-free.
func (r *Range) GPUAccessAtA(a *sim.Actor, off, bytes int64, random bool, step func(any), state any) {
	if r.released {
		panic("uvm: access to released range")
	}
	m := r.mgr
	if bytes > r.size {
		bytes = r.size
	}
	if off < 0 {
		off = 0
	}
	off %= r.size
	first := off / m.params.PageBytes
	need := (bytes + m.params.PageBytes - 1) / m.params.PageBytes
	r.lastTouch = m.nextClock()

	total := int64(len(r.resident))
	var missing []int
	for i := int64(0); i < need && i < total; i++ {
		idx := (first + i) % total
		if !r.resident[idx] {
			missing = append(missing, int(idx))
		}
	}
	if len(missing) == 0 {
		step(state)
		return
	}
	f := m.accFrames.Get()
	f.m, f.a, f.r, f.missing, f.batch, f.step, f.state = m, a, r, missing, m.batchSize(random), step, state
	accessNext(f)
}

// accessNext migrates the next fault batch, or completes the access.
func accessNext(x any) {
	f := x.(*accessFrame)
	if f.start >= len(f.missing) {
		m, step, state := f.m, f.step, f.state
		m.accFrames.Put(f)
		step(state)
		return
	}
	end := f.start + f.batch
	if end > len(f.missing) {
		end = len(f.missing)
	}
	pageIdx := f.missing[f.start:end]
	f.start = end
	f.m.migrateToGPUA(f.a, f.r, pageIdx, int64(len(pageIdx))*f.m.params.PageBytes, accessNext, f)
}

// PrefetchTo migrates the first `bytes` of the range to the device ahead
// of use (the cudaMemPrefetchAsync optimization). Driver-initiated
// migration always moves full prefetch-sized batches and pays no per-fault
// round trip, so it recovers most of the encrypted-paging penalty: the
// data still crosses the bounce buffer and the software cipher under CC,
// but in streaming form. Prefetching a released range panics.
func (r *Range) PrefetchTo(p *sim.Proc, bytes int64) {
	p.Await(func(a *sim.Actor, step func(any), state any) {
		r.PrefetchToA(a, bytes, step, state)
	})
}

// prefetchFrame drives one PrefetchToA batch loop; recycled through the
// manager's pool.
type prefetchFrame struct {
	m       *Manager
	a       *sim.Actor
	r       *Range
	missing []int
	start   int
	end     int
	n       int64 // bytes in the batch in flight
	startT  sim.Time
	sp      obs.Span
	step    func(any)
	state   any
}

// PrefetchToA is the continuation form of PrefetchTo. Like PrefetchTo it
// panics on a released range — the modelled use-after-free.
func (r *Range) PrefetchToA(a *sim.Actor, bytes int64, step func(any), state any) {
	if r.released {
		panic("uvm: prefetch of released range")
	}
	m := r.mgr
	if bytes > r.size {
		bytes = r.size
	}
	need := (bytes + m.params.PageBytes - 1) / m.params.PageBytes
	r.lastTouch = m.nextClock()

	var missing []int
	for i := int64(0); i < need && i < int64(len(r.resident)); i++ {
		if !r.resident[i] {
			missing = append(missing, int(i))
		}
	}
	if len(missing) == 0 {
		step(state)
		return
	}
	f := m.pfFrames.Get()
	f.m, f.a, f.r, f.missing, f.step, f.state = m, a, r, missing, step, state
	prefetchNext(f)
}

// prefetchNext moves the next full batch, or completes the prefetch.
// Driver-initiated migration always moves full prefetch-sized batches and
// pays no per-fault round trip.
func prefetchNext(x any) {
	f := x.(*prefetchFrame)
	m := f.m
	if f.start >= len(f.missing) {
		step, state := f.step, f.state
		m.pfFrames.Put(f)
		step(state)
		return
	}
	end := f.start + m.params.BatchPages // full batches in both modes
	if end > len(f.missing) {
		end = len(f.missing)
	}
	f.end = end
	f.n = int64(end-f.start) * m.params.PageBytes
	f.startT = m.eng.Now()
	f.sp = m.trk.Begin("prefetch").Bytes(f.n)
	m.mode.MigrateA(m.port, f.a, ccmode.H2D, f.n, prefetchMoved, f)
}

func prefetchMoved(x any) {
	f := x.(*prefetchFrame)
	m := f.m
	for _, i := range f.missing[f.start:f.end] {
		if !f.r.resident[i] {
			f.r.resident[i] = true
			f.r.onGPU++
			m.residentBytes += m.params.PageBytes
		}
	}
	m.stats.PagesMigrated += int64(f.end - f.start)
	m.stats.BytesToGPU += f.n
	m.evictIfNeededA(f.a, f.r, prefetchEvicted, f)
}

func prefetchEvicted(x any) {
	f := x.(*prefetchFrame)
	m := f.m
	f.sp.End()
	m.tracer.Record(trace.Event{
		Kind: trace.KindFaultBatch, Name: "uvm-prefetch",
		Start: f.startT, End: m.eng.Now(), Bytes: f.n, Managed: true,
	})
	f.start = f.end
	prefetchNext(f)
}

// HostAccess charges a CPU-side touch of the first `bytes` of the range:
// resident pages migrate back (write-back), paying decryption under CC.
// Accessing a released range panics.
func (r *Range) HostAccess(p *sim.Proc, bytes int64) {
	p.Await(func(a *sim.Actor, step func(any), state any) {
		r.HostAccessA(a, bytes, step, state)
	})
}

// writebackFrame drives one HostAccessA batch loop; recycled through the
// manager's pool.
type writebackFrame struct {
	m     *Manager
	a     *sim.Actor
	back  int64
	moved int64
	batch int64
	step  func(any)
	state any
}

// HostAccessA is the continuation form of HostAccess. Residency is cleared
// synchronously; the write-back batches then migrate one after another.
// Like HostAccess it panics on a released range — the modelled
// use-after-free.
func (r *Range) HostAccessA(a *sim.Actor, bytes int64, step func(any), state any) {
	if r.released {
		panic("uvm: access to released range")
	}
	m := r.mgr
	if bytes > r.size {
		bytes = r.size
	}
	need := (bytes + m.params.PageBytes - 1) / m.params.PageBytes
	var back int64
	for i := int64(0); i < need && i < int64(len(r.resident)); i++ {
		if r.resident[i] {
			r.resident[i] = false
			back++
		}
	}
	if back == 0 {
		step(state)
		return
	}
	r.onGPU -= back
	m.residentBytes -= back * m.params.PageBytes
	f := m.wbFrames.Get()
	f.m, f.a, f.back, f.batch, f.step, f.state = m, a, back, int64(m.batchSize(false)), step, state
	writebackNext(f)
}

func writebackNext(x any) {
	f := x.(*writebackFrame)
	m := f.m
	if f.moved >= f.back {
		step, state := f.step, f.state
		m.wbFrames.Put(f)
		step(state)
		return
	}
	n := f.batch
	if f.back-f.moved < n {
		n = f.back - f.moved
	}
	f.moved += n
	m.migrateToHostA(f.a, n*m.params.PageBytes, writebackNext, f)
}

func (m *Manager) nextClock() int64 {
	m.clock++
	return m.clock
}

// migrateFrame carries one fault-batch or write-back migration; recycled
// through the manager's pool.
type migrateFrame struct {
	m       *Manager
	a       *sim.Actor
	r       *Range // target range; nil on the write-back path
	pageIdx []int
	bytes   int64
	toHost  bool
	startT  sim.Time
	hc      int // hypercall round trips still to charge
	sp      obs.Span
	step    func(any)
	state   any
}

// migrateToGPUA services one fault batch: fault round trip, mode-dependent
// hypercalls, the mode's page-move transform (bounce staging + software
// crypto, direct DMA, or the serialized bridge), and residency bookkeeping
// (with LRU eviction when over the resident limit).
func (m *Manager) migrateToGPUA(a *sim.Actor, r *Range, pageIdx []int, bytes int64, step func(any), state any) {
	f := m.migFrames.Get()
	f.m, f.a, f.r, f.pageIdx, f.bytes, f.step, f.state = m, a, r, pageIdx, bytes, step, state
	f.startT = m.eng.Now()
	f.sp = m.trk.Begin("fault-batch").Bytes(bytes).Count(int64(len(pageIdx)))
	f.hc = m.mode.FaultHypercalls(m.params.CCFaultHypercalls)
	a.Sleep(m.params.FaultService, migServiced, f)
}

// migrateToHostA writes a batch back to host memory. Under CC the GPU-side
// encryption is fast, but the host-side software decryption is the same
// single-threaded worker as on the copy path.
func (m *Manager) migrateToHostA(a *sim.Actor, bytes int64, step func(any), state any) {
	f := m.migFrames.Get()
	f.m, f.a, f.bytes, f.toHost, f.step, f.state = m, a, bytes, true, step, state
	f.startT = m.eng.Now()
	f.sp = m.trk.Begin("writeback").Bytes(bytes)
	f.hc = m.mode.FaultHypercalls(m.params.CCFaultHypercalls)
	a.Sleep(m.params.FaultService, migServiced, f)
}

// migServiced charges the batch's hypercall round trips one by one, then
// hands the page move to the protection mode.
func migServiced(x any) {
	f := x.(*migrateFrame)
	if f.hc > 0 {
		f.hc--
		f.m.pl.HypercallA(f.a, migServiced, f)
		return
	}
	dir := ccmode.H2D
	if f.toHost {
		dir = ccmode.D2H
	}
	f.m.mode.MigrateA(f.m.port, f.a, dir, f.bytes, migMoved, f)
}

func migMoved(x any) {
	f := x.(*migrateFrame)
	m := f.m
	if f.toHost {
		f.sp.End()
		m.stats.FaultBatches++
		m.stats.BytesToHost += f.bytes
		m.tracer.Record(trace.Event{
			Kind: trace.KindFaultBatch, Name: "uvm-writeback",
			Start: f.startT, End: m.eng.Now(), Bytes: f.bytes, Managed: true,
		})
		step, state := f.step, f.state
		m.migFrames.Put(f)
		step(state)
		return
	}
	for _, i := range f.pageIdx {
		if !f.r.resident[i] {
			f.r.resident[i] = true
			f.r.onGPU++
			m.residentBytes += m.params.PageBytes
		}
	}
	m.stats.FaultBatches++
	m.stats.PagesMigrated += int64(len(f.pageIdx))
	m.stats.BytesToGPU += f.bytes
	m.evictIfNeededA(f.a, f.r, migEvicted, f)
}

func migEvicted(x any) {
	f := x.(*migrateFrame)
	m := f.m
	f.sp.End()
	m.tracer.Record(trace.Event{
		Kind: trace.KindFaultBatch, Name: "uvm-migrate",
		Start: f.startT, End: m.eng.Now(), Bytes: f.bytes, Managed: true,
	})
	step, state := f.step, f.state
	m.migFrames.Put(f)
	step(state)
}

// evictFrame drives one eviction loop; recycled through the manager's pool.
type evictFrame struct {
	m       *Manager
	a       *sim.Actor
	current *Range
	step    func(any)
	state   any
}

// evictIfNeededA pushes least-recently-touched ranges' pages back to host
// until residency fits the limit, re-checking after every write-back. The
// currently faulting range is exempt.
func (m *Manager) evictIfNeededA(a *sim.Actor, current *Range, step func(any), state any) {
	if m.residentLimit <= 0 || m.residentBytes <= m.residentLimit {
		step(state)
		return
	}
	f := m.evFrames.Get()
	f.m, f.a, f.current, f.step, f.state = m, a, current, step, state
	evictNext(f)
}

func evictNext(x any) {
	f := x.(*evictFrame)
	m := f.m
	if m.residentBytes <= m.residentLimit {
		evictDone(f)
		return
	}
	victim := m.lruVictim(f.current)
	if victim == nil {
		evictDone(f) // nothing evictable
		return
	}
	evict := victim.onGPU
	victim.resident = make([]bool, len(victim.resident))
	victim.onGPU = 0
	m.residentBytes -= evict * m.params.PageBytes
	m.stats.Evictions += evict
	m.migrateToHostA(f.a, evict*m.params.PageBytes, evictNext, f)
}

func evictDone(f *evictFrame) {
	step, state := f.step, f.state
	f.m.evFrames.Put(f)
	step(state)
}

func (m *Manager) lruVictim(exempt *Range) *Range {
	var victim *Range
	for _, r := range m.ranges {
		if r == exempt || r.released || r.onGPU == 0 {
			continue
		}
		if victim == nil || r.lastTouch < victim.lastTouch {
			victim = r
		}
	}
	return victim
}

// String summarizes manager state for debugging.
func (m *Manager) String() string {
	return fmt.Sprintf("uvm{ranges=%d resident=%dB batches=%d}",
		len(m.ranges), m.residentBytes, m.stats.FaultBatches)
}
