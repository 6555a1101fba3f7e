package sim

import "fmt"

// Fence is a monotone completion counter, the simulator's GPU semaphore: a
// producer that finishes its work strictly in order calls Advance once per
// finished item, and tasks wait for the count to reach a target. One Fence
// stands in for a Signal per item, so a stream of N items costs no
// per-item allocation.
//
// Tasks parked on the same target resume exactly as they would on that
// item's own Signal: at the Advance that reaches it, at one timestamp, in
// the order they parked, Proc and actor waiters alike. The zero value is
// not usable; use NewFence.
type Fence struct {
	eng       *Engine
	done      uint64
	waiters   []fenceWaiter
	blockName string
}

// fenceWaiter is one task parked until the count reaches target.
type fenceWaiter struct {
	target uint64
	w      waiter
}

// NewFence returns a fence with a count of zero.
func NewFence(e *Engine) *Fence { return &Fence{eng: e, blockName: "fence"} }

// SetLabel names the fence in deadlock reports and returns it.
func (f *Fence) SetLabel(label string) *Fence {
	f.blockName = fmt.Sprintf("fence %q", label)
	return f
}

// Completed returns the count: how many items have finished.
func (f *Fence) Completed() uint64 { return f.done }

// Advance counts one more finished item and resumes, in park order, every
// task waiting for the new count. The wait list is compacted in place, so
// a steady advance/park cycle allocates nothing.
func (f *Fence) Advance() {
	f.done++
	keep := f.waiters[:0]
	for _, fw := range f.waiters {
		if fw.target <= f.done {
			f.eng.wakeWaiter(fw.w)
		} else {
			keep = append(keep, fw)
		}
	}
	clear(f.waiters[len(keep):])
	f.waiters = keep
}

// Wait blocks p until the count reaches target. It returns without yielding
// if it already has.
func (f *Fence) Wait(p *Proc, target uint64) {
	if target <= f.done {
		return
	}
	f.waiters = append(f.waiters, fenceWaiter{target: target, w: waiter{proc: p}})
	p.blockedOn = f.blockName
	p.yield()
}

// WaitA parks step(state) until the count reaches target, running it inline
// right away if it already has — the actor counterpart of Wait.
func (f *Fence) WaitA(a *Actor, target uint64, step func(any), state any) {
	if target <= f.done {
		step(state)
		return
	}
	a.blockedOn = f.blockName
	f.waiters = append(f.waiters, fenceWaiter{target: target, w: waiter{actor: a, fn: step, arg: state}})
}
