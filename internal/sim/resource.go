package sim

import "fmt"

// Resource is a counted resource with FIFO admission: up to Capacity units
// may be held at once; further Acquire calls block in arrival order. It
// models serial or k-way hardware (a PCIe DMA engine, a pool of copy
// engines, a single-threaded encryption worker). Proc and actor waiters
// share one wait list, so admission order is FIFO across both task models.
type Resource struct {
	eng       *Engine
	capacity  int
	inUse     int
	waiters   fifo[waiter]
	blockName string
	usePool   FramePool[useFrame]

	// Accounting for utilization reports.
	busyTime   Duration
	lastChange Time
}

// NewResource returns a resource with the given capacity (>= 1); smaller
// capacities panic.
func NewResource(e *Engine, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{eng: e, capacity: capacity, blockName: "resource"}
}

// SetLabel names the resource in deadlock reports and returns it.
func (r *Resource) SetLabel(label string) *Resource {
	r.blockName = fmt.Sprintf("resource %q", label)
	return r
}

// Capacity returns the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of tasks blocked in Acquire.
func (r *Resource) QueueLen() int { return r.waiters.len() }

func (r *Resource) account() {
	now := r.eng.now
	if r.inUse > 0 {
		r.busyTime += now.Sub(r.lastChange)
	}
	r.lastChange = now
}

// BusyTime returns the cumulative time during which at least one unit was held.
func (r *Resource) BusyTime() Duration {
	d := r.busyTime
	if r.inUse > 0 {
		d += r.eng.now.Sub(r.lastChange)
	}
	return d
}

// Acquire takes one unit, blocking p FIFO-fashion until one is free.
func (r *Resource) Acquire(p *Proc) {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		return
	}
	r.waiters.push(waiter{proc: p})
	p.blockedOn = r.blockName
	p.yield()
	// Our releaser handed the unit to us directly; inUse already counts it.
}

// AcquireA takes one unit for an actor chain: when one is free the
// continuation runs inline (matching Acquire's synchronous fast path),
// otherwise it parks FIFO behind earlier waiters of either task model.
func (r *Resource) AcquireA(a *Actor, step func(any), state any) {
	if r.inUse < r.capacity && r.waiters.len() == 0 {
		r.account()
		r.inUse++
		step(state)
		return
	}
	a.blockedOn = r.blockName
	r.waiters.push(waiter{actor: a, fn: step, arg: state})
}

// Release frees one unit. If tasks are waiting, ownership passes to the
// first waiter without the count dipping, preserving FIFO fairness.
// Releasing an idle resource panics, since it means an unmatched
// Acquire/Release pair.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: Release of idle resource")
	}
	if r.waiters.len() > 0 {
		r.eng.wakeWaiter(r.waiters.pop())
		return
	}
	r.account()
	r.inUse--
}

// Use acquires the resource, holds it for d, then releases it. This is the
// common pattern for modelling an operation that occupies hardware for a
// known duration.
func (r *Resource) Use(p *Proc, d Duration) {
	r.Acquire(p)
	p.Sleep(d)
	r.Release()
}

// useFrame carries one UseA chain; recycled through the resource's pool.
type useFrame struct {
	r     *Resource
	a     *Actor
	d     Duration
	step  func(any)
	state any
}

// UseA is the actor counterpart of Use: acquire, hold for d, release, then
// run step(state). The internal frames are pooled, so a steady-state UseA
// chain allocates nothing.
func (r *Resource) UseA(a *Actor, d Duration, step func(any), state any) {
	f := r.usePool.Get()
	f.r, f.a, f.d, f.step, f.state = r, a, d, step, state
	r.AcquireA(a, useAcquired, f)
}

func useAcquired(x any) {
	f := x.(*useFrame)
	f.a.Sleep(f.d, useHeld, f)
}

func useHeld(x any) {
	f := x.(*useFrame)
	r, step, state := f.r, f.step, f.state
	r.usePool.Put(f)
	r.Release()
	step(state)
}
