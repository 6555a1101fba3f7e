package sim

import "fmt"

// Queue is an unbounded FIFO of T with blocking Get, used as the command
// stream between producers (drivers, command processors) and consumers
// (engines). Put never blocks. Proc getters (Get) and actor getters (GetA)
// share one FIFO wait list.
//
// The type parameter removes the interface{} boxing the pre-generic queue
// imposed on every item: device-model call sites (gpu command channels)
// enqueue their command structs directly and Get returns them typed, with
// no per-item heap allocation and no type assertion on the hot path.
//
// Items and parked getters each live in a fifo, so an alternating Put/Get
// steady state allocates nothing.
type Queue[T any] struct {
	eng       *Engine
	items     fifo[T]
	getters   fifo[waiter]
	blockName string
	frames    FramePool[getFrame[T]]
	// wake is getWake[T], built once: a generic function value carries its
	// type dictionary, so naming it afresh on every park allocates.
	wake func(any)

	maxDepth int
	puts     uint64
}

// NewQueue returns an empty queue bound to e.
func NewQueue[T any](e *Engine) *Queue[T] { return &Queue[T]{eng: e, blockName: "queue"} }

// SetLabel names the queue in deadlock reports and returns it.
func (q *Queue[T]) SetLabel(label string) *Queue[T] {
	q.blockName = fmt.Sprintf("queue %q", label)
	return q
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return q.items.len() }

// MaxDepth returns the high-water mark of the queue length.
func (q *Queue[T]) MaxDepth() int { return q.maxDepth }

// Puts returns the total number of items ever enqueued.
func (q *Queue[T]) Puts() uint64 { return q.puts }

// Put appends an item and wakes one blocked getter, if any.
func (q *Queue[T]) Put(item T) {
	q.items.push(item)
	q.puts++
	if q.Len() > q.maxDepth {
		q.maxDepth = q.Len()
	}
	if q.getters.len() > 0 {
		q.eng.wakeWaiter(q.getters.pop())
	}
}

// PutFront inserts an item at the head of the queue, ahead of everything
// already queued, and wakes one blocked getter like Put. Schedulers use it
// to return a deferred or preempted item to the front so the original FIFO
// admission order is preserved.
func (q *Queue[T]) PutFront(item T) {
	q.items.pushFront(item)
	q.puts++
	if q.Len() > q.maxDepth {
		q.maxDepth = q.Len()
	}
	if q.getters.len() > 0 {
		q.eng.wakeWaiter(q.getters.pop())
	}
}

// Get removes and returns the oldest item, blocking p while the queue is
// empty. Concurrent getters are served FIFO.
func (q *Queue[T]) Get(p *Proc) T {
	for q.Len() == 0 {
		q.getters.push(waiter{proc: p})
		p.blockedOn = q.blockName
		p.yield()
	}
	return q.items.pop()
}

// TryGet removes and returns the oldest item without blocking; ok is false
// if the queue is empty.
func (q *Queue[T]) TryGet() (item T, ok bool) {
	if q.Len() == 0 {
		var zero T
		return zero, false
	}
	return q.items.pop(), true
}

// getFrame carries one parked GetA; recycled through the queue's pool.
type getFrame[T any] struct {
	q     *Queue[T]
	a     *Actor
	step  func(any, T)
	state any
}

// GetA delivers the oldest item to step(state, item) for an actor chain:
// inline when the queue is non-empty (matching Get's synchronous path),
// otherwise parking FIFO behind earlier getters of either task model. Like
// Get's re-check loop, a woken getter that finds the queue drained again
// re-parks at the back. Parked frames are pooled, so a steady-state
// park/wake cycle allocates nothing.
func (q *Queue[T]) GetA(a *Actor, step func(state any, item T), state any) {
	if q.Len() > 0 {
		step(state, q.items.pop())
		return
	}
	f := q.frames.Get()
	f.q, f.a, f.step, f.state = q, a, step, state
	a.blockedOn = q.blockName
	if q.wake == nil {
		q.wake = getWake[T]
	}
	q.getters.push(waiter{actor: a, fn: q.wake, arg: f})
}

// getWake resumes a parked GetA: deliver the head item, or re-park if
// another getter drained the queue first.
func getWake[T any](x any) {
	f := x.(*getFrame[T])
	q := f.q
	if q.Len() == 0 {
		f.a.blockedOn = q.blockName
		q.getters.push(waiter{actor: f.a, fn: q.wake, arg: f})
		return
	}
	step, state := f.step, f.state
	q.frames.Put(f)
	step(state, q.items.pop())
}

// fifo is a first-in first-out list in one backing slice. Pop advances a
// head index instead of re-slicing, so the array keeps its capacity and is
// reused from the front once the list drains; popped slots are zeroed so
// the list never pins what it handed out. A push that finds the array full
// with at least half of it already popped slides the live part to the
// front instead of growing, so a list that never drains stays within twice
// its peak length.
type fifo[T any] struct {
	buf  []T
	head int
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

// push appends x at the back.
func (f *fifo[T]) push(x T) {
	if len(f.buf) == cap(f.buf) && f.head > 0 && 2*f.head >= len(f.buf) {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf = f.buf[:n]
		f.head = 0
	}
	f.buf = append(f.buf, x)
}

// pushFront inserts x ahead of every queued element.
func (f *fifo[T]) pushFront(x T) {
	if f.head > 0 {
		f.head--
		f.buf[f.head] = x
		return
	}
	var zero T
	f.buf = append(f.buf, zero)
	copy(f.buf[1:], f.buf)
	f.buf[0] = x
}

// pop removes and returns the oldest element; the list must be non-empty.
func (f *fifo[T]) pop() T {
	x := f.buf[f.head]
	var zero T
	f.buf[f.head] = zero
	f.head++
	if f.head == len(f.buf) {
		f.buf = f.buf[:0]
		f.head = 0
	}
	return x
}
