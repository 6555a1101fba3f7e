// Package trace is the Nsight-Systems equivalent of the simulator: a
// recorder of timed events (allocations, copies, launches, kernels, faults,
// synchronization) and an analyzer that extracts the paper's metrics from
// them — Kernel Launch Overhead (KLO), Launch Queuing Time (LQT), Kernel
// Queuing Time (KQT), and Kernel Execution Time (KET) — exactly as defined
// in Section V of the paper.
package trace

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"hccsim/internal/sim"
)

// Kind classifies a trace event.
type Kind int

// Event kinds.
const (
	KindAlloc Kind = iota
	KindFree
	KindMemcpyH2D
	KindMemcpyD2H
	KindMemcpyD2D
	KindLaunch
	KindKernel
	KindSync
	KindFaultBatch
)

var kindNames = [...]string{
	"Alloc", "Free", "MemcpyH2D", "MemcpyD2H", "MemcpyD2D",
	"Launch", "Kernel", "Sync", "FaultBatch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one timed activity on the host or device timeline.
type Event struct {
	Kind    Kind
	Name    string // kernel name, API name, buffer label
	Stream  int    // stream id; 0 is the default stream, -1 host-only
	Start   sim.Time
	End     sim.Time
	Bytes   int64 // payload for copies/allocs/faults
	Managed bool  // true when the copy/fault went through UVM paging
	Seq     int   // correlation id: kernel events carry their launch's Seq
}

// Duration returns the event's extent.
func (e Event) Duration() time.Duration { return e.End.Sub(e.Start) }

// Tracer records events. It is not safe for concurrent use; the simulator
// is single-threaded by construction.
//
// A nil *Tracer is a valid recorder that stores nothing, so recording is
// opt-in: runs that never analyze their trace attach none and pay one nil
// check per event.
type Tracer struct {
	events []Event
	seq    int
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Record appends an event and returns its sequence number. An event that
// ends before it starts panics, on a nil tracer too: it indicates a broken
// model, and silently storing (or dropping) it would corrupt every
// downstream decomposition. A nil tracer stores nothing and returns e.Seq.
func (t *Tracer) Record(e Event) int {
	if e.End < e.Start {
		panic(fmt.Sprintf("trace: event %s ends before it starts (%v < %v)", e.Kind, e.End, e.Start))
	}
	if t == nil {
		return e.Seq
	}
	t.seq++
	if e.Seq == 0 {
		e.Seq = t.seq
	}
	t.events = append(t.events, e)
	return e.Seq
}

// NextSeq reserves a correlation id without recording, so a launch and its
// kernel can share one. A nil tracer returns 0.
func (t *Tracer) NextSeq() int {
	if t == nil {
		return 0
	}
	t.seq++
	return t.seq
}

// Events returns all recorded events in record order.
func (t *Tracer) Events() []Event { return t.events }

// OfKind returns events of kind k, in record order.
func (t *Tracer) OfKind(k Kind) []Event {
	var out []Event
	for _, e := range t.events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

// Span returns the wall-clock extent of the trace (first start to last end).
func (t *Tracer) Span() time.Duration {
	if len(t.events) == 0 {
		return 0
	}
	min, max := t.events[0].Start, t.events[0].End
	for _, e := range t.events {
		if e.Start < min {
			min = e.Start
		}
		if e.End > max {
			max = e.End
		}
	}
	return max.Sub(min)
}

// Metrics are the per-application aggregates of the paper's Section V model
// inputs, extracted from a trace.
type Metrics struct {
	// KLO is the summed duration of launch API calls.
	KLO time.Duration
	// LQT is the summed waiting time between consecutive launches: for each
	// launch after the first, max(0, start_i - end_{i-1}) minus any time the
	// host verifiably spent in other traced API calls in that gap.
	LQT time.Duration
	// KQT is the summed time kernels waited between launch completion and
	// execution start.
	KQT time.Duration
	// KET is the summed kernel execution time.
	KET time.Duration
	// CopyTime per direction, and the managed (UVM encrypted paging) share.
	CopyH2D, CopyD2H, CopyD2D time.Duration
	ManagedCopy               time.Duration
	// AllocTime and FreeTime cover all memory-management APIs.
	AllocTime, FreeTime time.Duration
	SyncTime            time.Duration
	Launches            int
	Kernels             int
	// KLOs and KETs are the per-event samples, for CDFs (Fig 11).
	KLOs, KETs []time.Duration
}

// Analyze extracts Metrics from the trace. It works on int32 indices into
// the recorded events rather than copies of them, and allocates its scratch
// space up front.
func (t *Tracer) Analyze() Metrics {
	var m Metrics
	ev := t.events
	nBusy := 0 // host-side API events for gap accounting
	for i := range ev {
		switch ev[i].Kind {
		case KindLaunch:
			m.Launches++
			nBusy++
		case KindKernel:
			m.Kernels++
		case KindMemcpyH2D, KindMemcpyD2H, KindMemcpyD2D, KindAlloc, KindFree, KindSync:
			nBusy++
		}
	}
	if m.Launches > 0 {
		m.KLOs = make([]time.Duration, 0, m.Launches)
	}
	if m.Kernels > 0 {
		m.KETs = make([]time.Duration, 0, m.Kernels)
	}
	idx := make([]int32, 0, m.Launches+m.Kernels+nBusy)
	launches := idx[:0:m.Launches]
	kernels := idx[m.Launches : m.Launches : m.Launches+m.Kernels]
	busy := idx[m.Launches+m.Kernels : m.Launches+m.Kernels]
	for i := range ev {
		e := &ev[i]
		d := e.Duration()
		switch e.Kind {
		case KindLaunch:
			m.KLO += d
			m.KLOs = append(m.KLOs, d)
			launches = append(launches, int32(i))
			busy = append(busy, int32(i))
		case KindKernel:
			m.KET += d
			m.KETs = append(m.KETs, d)
			kernels = append(kernels, int32(i))
		case KindMemcpyH2D:
			m.CopyH2D += d
			busy = append(busy, int32(i))
		case KindMemcpyD2H:
			m.CopyD2H += d
			busy = append(busy, int32(i))
		case KindMemcpyD2D:
			m.CopyD2D += d
			busy = append(busy, int32(i))
		case KindAlloc:
			m.AllocTime += d
			busy = append(busy, int32(i))
		case KindFree:
			m.FreeTime += d
			busy = append(busy, int32(i))
		case KindSync:
			m.SyncTime += d
			busy = append(busy, int32(i))
		}
		if e.Kind == KindMemcpyH2D || e.Kind == KindMemcpyD2H || e.Kind == KindMemcpyD2D {
			if e.Managed {
				m.ManagedCopy += d
			}
		}
	}

	// LQT: gaps between consecutive launches not covered by other API work.
	byStart := func(a, b int32) int { return cmp.Compare(ev[a].Start, ev[b].Start) }
	slices.SortFunc(launches, byStart)
	slices.SortFunc(busy, byStart)
	// reach[j] is the latest End among busy[:j+1]. Every event before the
	// first reach past a gap's start ends by then, so overlapWith would skip
	// it; each gap's scan starts at that event instead of at busy[0].
	reach := make([]sim.Time, len(busy))
	for j, b := range busy {
		reach[j] = ev[b].End
		if j > 0 && reach[j-1] > reach[j] {
			reach[j] = reach[j-1]
		}
	}
	for i := 1; i < len(launches); i++ {
		prev, cur := &ev[launches[i-1]], &ev[launches[i]]
		gapStart, gapEnd := prev.End, cur.Start
		if gapEnd <= gapStart {
			continue
		}
		from := sort.Search(len(reach), func(j int) bool { return reach[j] > gapStart })
		covered := overlapWith(ev, busy[from:], gapStart, gapEnd, cur.Seq, prev.Seq)
		gap := gapEnd.Sub(gapStart) - covered
		if gap > 0 {
			m.LQT += gap
		}
	}

	// KQT: match kernels to launches by correlation id; for a duplicated
	// seq the launch latest in start order wins.
	lookup := newSeqIndex(ev, launches, t.seq+len(ev))
	for _, k := range kernels {
		if l, ok := lookup.find(ev[k].Seq); ok {
			if q := ev[k].Start.Sub(ev[l].End); q > 0 {
				m.KQT += q
			}
		}
	}
	return m
}

// seqIndex maps a launch seq to the launch's event index. Seqs from NextSeq
// are dense, so they index a slice sized by the largest one up to limit; a
// seq outside that range (negative, or beyond limit, which only a
// caller-supplied Seq can be) goes to a map built only when one occurs.
type seqIndex struct {
	dense  []int32 // event index + 1; 0 means no launch
	sparse map[int]int32
}

func newSeqIndex(ev []Event, launches []int32, limit int) seqIndex {
	top := -1
	for _, l := range launches {
		if s := ev[l].Seq; s > top && s <= limit {
			top = s
		}
	}
	x := seqIndex{dense: make([]int32, top+1)}
	for _, l := range launches {
		s := ev[l].Seq
		if s >= 0 && s <= top {
			x.dense[s] = l + 1
			continue
		}
		if x.sparse == nil {
			x.sparse = make(map[int]int32)
		}
		x.sparse[s] = l
	}
	return x
}

// find returns the event index of the launch with the given seq.
func (x seqIndex) find(seq int) (int32, bool) {
	if seq >= 0 && seq < len(x.dense) {
		l := x.dense[seq]
		return l - 1, l > 0
	}
	l, ok := x.sparse[seq]
	return l, ok
}

// overlapWith sums the portions of [start, end] covered by the busy events
// (indices into ev), skipping the two launches that bound the gap. busy is
// sorted by Start, so the scan stops at the first event that starts at or
// after end.
func overlapWith(ev []Event, busy []int32, start, end sim.Time, skipA, skipB int) time.Duration {
	var covered time.Duration
	cursor := start
	for _, b := range busy {
		e := &ev[b]
		if e.Start >= end {
			break
		}
		if e.Seq == skipA || e.Seq == skipB {
			continue
		}
		if e.End <= cursor {
			continue
		}
		s := e.Start
		if s < cursor {
			s = cursor
		}
		f := e.End
		if f > end {
			f = end
		}
		if f > s {
			covered += f.Sub(s)
			cursor = f
		}
	}
	return covered
}

// CDF returns sorted samples and, for each, the cumulative fraction — the
// exact form plotted in Fig 11. trimTop removes the N largest samples (the
// paper trims the top 5 launch durations for display).
func CDF(samples []time.Duration, trimTop int) (xs []time.Duration, ps []float64) {
	if len(samples) == 0 {
		return nil, nil
	}
	xs = append([]time.Duration(nil), samples...)
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	if trimTop > 0 && trimTop < len(xs) {
		xs = xs[:len(xs)-trimTop]
	}
	ps = make([]float64, len(xs))
	for i := range xs {
		ps[i] = float64(i+1) / float64(len(xs))
	}
	return xs, ps
}

// Mean returns the average of the samples (0 for none).
func Mean(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range samples {
		sum += s
	}
	return sum / time.Duration(len(samples))
}
