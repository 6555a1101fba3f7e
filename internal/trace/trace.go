// Package trace is the Nsight-Systems equivalent of the simulator: a
// recorder of timed events (allocations, copies, launches, kernels, faults,
// synchronization) and an analyzer that extracts the paper's metrics from
// them — Kernel Launch Overhead (KLO), Launch Queuing Time (LQT), Kernel
// Queuing Time (KQT), and Kernel Execution Time (KET) — exactly as defined
// in Section V of the paper.
package trace

import (
	"fmt"
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

// Analyze extracts Metrics from the trace.
func (t *Tracer) Analyze() Metrics {
	var m Metrics
	var launches, kernels []Event
	busy := make([]Event, 0, len(t.events)) // host-side API events for gap accounting
	for _, e := range t.events {
		switch e.Kind {
		case KindLaunch:
			m.KLO += e.Duration()
			m.KLOs = append(m.KLOs, e.Duration())
			m.Launches++
			launches = append(launches, e)
			busy = append(busy, e)
		case KindKernel:
			m.KET += e.Duration()
			m.KETs = append(m.KETs, e.Duration())
			m.Kernels++
			kernels = append(kernels, e)
		case KindMemcpyH2D:
			m.CopyH2D += e.Duration()
			busy = append(busy, e)
		case KindMemcpyD2H:
			m.CopyD2H += e.Duration()
			busy = append(busy, e)
		case KindMemcpyD2D:
			m.CopyD2D += e.Duration()
			busy = append(busy, e)
		case KindAlloc:
			m.AllocTime += e.Duration()
			busy = append(busy, e)
		case KindFree:
			m.FreeTime += e.Duration()
			busy = append(busy, e)
		case KindSync:
			m.SyncTime += e.Duration()
			busy = append(busy, e)
		}
		if e.Kind == KindMemcpyH2D || e.Kind == KindMemcpyD2H || e.Kind == KindMemcpyD2D {
			if e.Managed {
				m.ManagedCopy += e.Duration()
			}
		}
	}

	// LQT: gaps between consecutive launches not covered by other API work.
	sort.Slice(launches, func(i, j int) bool { return launches[i].Start < launches[j].Start })
	sort.Slice(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	// reach[j] is the latest End among busy[:j+1]. Every event before the
	// first reach past a gap's start ends by then, so overlapWith would skip
	// it; each gap's scan starts at that event instead of at busy[0].
	reach := make([]sim.Time, len(busy))
	for j, e := range busy {
		reach[j] = e.End
		if j > 0 && reach[j-1] > e.End {
			reach[j] = reach[j-1]
		}
	}
	for i := 1; i < len(launches); i++ {
		gapStart, gapEnd := launches[i-1].End, launches[i].Start
		if gapEnd <= gapStart {
			continue
		}
		from := sort.Search(len(reach), func(j int) bool { return reach[j] > gapStart })
		covered := overlapWith(busy[from:], gapStart, gapEnd, launches[i].Seq, launches[i-1].Seq)
		gap := gapEnd.Sub(gapStart) - covered
		if gap > 0 {
			m.LQT += gap
		}
	}

	// KQT: match kernels to launches by correlation id.
	launchBySeq := make(map[int]Event, len(launches))
	for _, l := range launches {
		launchBySeq[l.Seq] = l
	}
	for _, k := range kernels {
		if l, ok := launchBySeq[k.Seq]; ok {
			if q := k.Start.Sub(l.End); q > 0 {
				m.KQT += q
			}
		}
	}
	return m
}

// overlapWith sums the portions of [start, end] covered by busy events,
// skipping the two launches that bound the gap. busy is sorted by Start, so
// the scan stops at the first event that starts at or after end.
func overlapWith(busy []Event, start, end sim.Time, skipA, skipB int) time.Duration {
	var covered time.Duration
	cursor := start
	for _, e := range busy {
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
