package obs

import (
	"fmt"
	"math"
	"math/bits"
)

// Kind distinguishes instrument types in the registry.
type Kind uint8

// Instrument kinds.
const (
	KindCounter Kind = iota + 1
	KindGauge
	KindHistogram
)

// String names the kind for error messages and exports.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry is a typed registry of named instruments. It subsumes the
// ad-hoc per-layer stats structs (sim.Engine.Stats, tdx.Stats, uvm.Stats,
// pcie's counters): the substrate publishes those counters here at the end
// of an observed run under one namespace, and the exporters render them in
// registration order, which keeps every export deterministic.
//
// Registration is idempotent: re-registering a name with the same kind and
// unit returns the existing instrument; a kind or unit conflict is an
// error (or a panic from the Must* forms, whose doc comments state that
// contract). A nil *Registry is valid and ignores everything.
type Registry struct {
	byName map[string]int
	insts  []*instrument
}

// instrument is one named counter/gauge/histogram cell.
type instrument struct {
	name string
	unit string
	kind Kind

	count int64   // counter value / histogram sample count
	gauge float64 // gauge value
	sum   int64   // histogram sum
	min   int64   // histogram minimum (valid when count > 0)
	max   int64   // histogram maximum
	// buckets counts samples by power-of-two magnitude: index
	// bits.Len64(v) for v >= 0, so bucket i holds values in [2^(i-1), 2^i).
	buckets [65]int64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

func (r *Registry) register(name, unit string, kind Kind) (*instrument, error) {
	if r == nil {
		return nil, nil
	}
	if i, ok := r.byName[name]; ok {
		inst := r.insts[i]
		if inst.kind != kind || inst.unit != unit {
			return nil, fmt.Errorf("obs: instrument %q already registered as %s (%s), not %s (%s)",
				name, inst.kind, inst.unit, kind, unit)
		}
		return inst, nil
	}
	inst := &instrument{name: name, unit: unit, kind: kind}
	r.byName[name] = len(r.insts)
	r.insts = append(r.insts, inst)
	return inst, nil
}

// Counter is a monotonically growing count. The zero Counter discards.
type Counter struct{ i *instrument }

// Gauge is a point-in-time value. The zero Gauge discards.
type Gauge struct{ i *instrument }

// Histogram is a distribution of non-negative int64 samples in
// power-of-two buckets. The zero Histogram discards.
type Histogram struct{ i *instrument }

// Counter registers (or finds) a counter. Kind or unit conflicts error.
func (r *Registry) Counter(name, unit string) (Counter, error) {
	inst, err := r.register(name, unit, KindCounter)
	return Counter{i: inst}, err
}

// Gauge registers (or finds) a gauge. Kind or unit conflicts error.
func (r *Registry) Gauge(name, unit string) (Gauge, error) {
	inst, err := r.register(name, unit, KindGauge)
	return Gauge{i: inst}, err
}

// Histogram registers (or finds) a histogram. Kind or unit conflicts error.
func (r *Registry) Histogram(name, unit string) (Histogram, error) {
	inst, err := r.register(name, unit, KindHistogram)
	return Histogram{i: inst}, err
}

// MustCounter is Counter for static registrations; it panics on a kind or
// unit conflict, which is a programming error at the call site.
func (r *Registry) MustCounter(name, unit string) Counter {
	c, err := r.Counter(name, unit)
	if err != nil {
		panic(err)
	}
	return c
}

// MustGauge is Gauge for static registrations; it panics on a kind or
// unit conflict, which is a programming error at the call site.
func (r *Registry) MustGauge(name, unit string) Gauge {
	g, err := r.Gauge(name, unit)
	if err != nil {
		panic(err)
	}
	return g
}

// MustHistogram is Histogram for static registrations; it panics on a kind
// or unit conflict, which is a programming error at the call site.
func (r *Registry) MustHistogram(name, unit string) Histogram {
	h, err := r.Histogram(name, unit)
	if err != nil {
		panic(err)
	}
	return h
}

// Add increases the counter.
func (c Counter) Add(delta int64) {
	if c.i != nil {
		c.i.count += delta
	}
}

// Value returns the counter's current value.
func (c Counter) Value() int64 {
	if c.i == nil {
		return 0
	}
	return c.i.count
}

// Set stores the gauge's value. A NaN or infinite value panics: the
// Chrome-trace export writes gauges as JSON numbers, which cannot spell
// them, so storing one would corrupt the whole export. The zero Gauge
// (observability off) stores nothing and checks nothing.
func (g Gauge) Set(v float64) {
	if g.i == nil {
		return
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("obs: non-finite gauge value")
	}
	g.i.gauge = v
}

// Value returns the gauge's current value.
func (g Gauge) Value() float64 {
	if g.i == nil {
		return 0
	}
	return g.i.gauge
}

// Observe records one sample. Negative samples clamp to zero.
func (h Histogram) Observe(v int64) {
	if h.i == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	i := h.i
	if i.count == 0 || v < i.min {
		i.min = v
	}
	if v > i.max {
		i.max = v
	}
	i.count++
	i.sum += v
	i.buckets[bits.Len64(uint64(v))]++
}

// Count returns the number of samples observed.
func (h Histogram) Count() int64 {
	if h.i == nil {
		return 0
	}
	return h.i.count
}

// Sum returns the total of all samples.
func (h Histogram) Sum() int64 {
	if h.i == nil {
		return 0
	}
	return h.i.sum
}

// Min returns the smallest sample (0 when empty).
func (h Histogram) Min() int64 {
	if h.i == nil {
		return 0
	}
	return h.i.min
}

// Max returns the largest sample (0 when empty).
func (h Histogram) Max() int64 {
	if h.i == nil {
		return 0
	}
	return h.i.max
}

// MetricPoint is one instrument's snapshot for exporters and tests.
type MetricPoint struct {
	Name string
	Unit string
	Kind Kind
	// Count carries the counter value or histogram sample count.
	Count int64
	// Value carries the gauge value.
	Value float64
	// Sum, Min, Max summarize a histogram's samples.
	Sum, Min, Max int64
}

// Each visits every instrument in registration order. Nil-safe.
func (r *Registry) Each(fn func(MetricPoint)) {
	if r == nil {
		return
	}
	for _, i := range r.insts {
		fn(MetricPoint{
			Name: i.name, Unit: i.unit, Kind: i.kind,
			Count: i.count, Value: i.gauge,
			Sum: i.sum, Min: i.min, Max: i.max,
		})
	}
}

// Len reports how many instruments are registered.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.insts)
}
