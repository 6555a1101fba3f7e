package sim

// Coverage for the generic Queue[T] conversion: typed FIFO ordering,
// TryGet on empty, backing-array reuse, and multi-waiter determinism
// (run these under -race: exactly one task is ever runnable, and the
// detector confirms every coroutine handoff is properly synchronized).

import (
	"testing"
	"time"
)

func TestQueueFIFOOrderingTyped(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)
	var got []string
	e.Spawn("c", func(p *Proc) {
		for i := 0; i < 4; i++ {
			got = append(got, q.Get(p))
		}
	})
	e.Spawn("p", func(p *Proc) {
		for _, s := range []string{"a", "b", "c", "d"} {
			q.Put(s)
			p.Sleep(time.Nanosecond)
		}
	})
	e.Run()
	want := []string{"a", "b", "c", "d"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
}

func TestQueueTryGetEmptyReturnsZeroValue(t *testing.T) {
	e := NewEngine()
	q := NewQueue[*int](e)
	v, ok := q.TryGet()
	if ok || v != nil {
		t.Fatalf("TryGet on empty = (%v, %v), want (nil, false)", v, ok)
	}
	type cmd struct{ n int }
	qs := NewQueue[cmd](e)
	c, ok := qs.TryGet()
	if ok || c != (cmd{}) {
		t.Fatalf("TryGet on empty struct queue = (%v, %v)", c, ok)
	}
}

// TestQueueMultiWaiterDeterminism runs several consumers blocked on one
// queue and checks that items are handed to them in consumer-arrival order,
// identically on every run.
func TestQueueMultiWaiterDeterminism(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		q := NewQueue[int](e)
		var log []string
		for c := 0; c < 3; c++ {
			c := c
			name := string(rune('a' + c))
			e.Spawn(name, func(p *Proc) {
				p.Sleep(Duration(c) * time.Nanosecond) // queue up in index order
				v := q.Get(p)
				log = append(log, name+":"+string(rune('0'+v)))
			})
		}
		e.Spawn("producer", func(p *Proc) {
			p.Sleep(10 * time.Nanosecond) // let all consumers block first
			for i := 0; i < 3; i++ {
				q.Put(i)
				p.Sleep(time.Nanosecond)
			}
		})
		e.Run()
		return log
	}
	first := run()
	want := []string{"a:0", "b:1", "c:2"}
	if len(first) != len(want) {
		t.Fatalf("log %v, want %v", first, want)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log %v, want %v", first, want)
		}
	}
	for i := 0; i < 20; i++ {
		again := run()
		for j := range first {
			if again[j] != first[j] {
				t.Fatalf("nondeterministic multi-waiter handoff: %v vs %v", first, again)
			}
		}
	}
}

func TestQueueReusesBackingArray(t *testing.T) {
	e := NewEngine()
	q := NewQueue[int](e)
	q.Put(1)
	q.Put(2)
	q.items.pop()
	q.items.pop()
	if q.items.head != 0 || len(q.items.buf) != 0 {
		t.Fatalf("window did not reset on drain: head=%d len=%d", q.items.head, len(q.items.buf))
	}
	before := cap(q.items.buf)
	for i := 0; i < 100; i++ {
		q.Put(i)
		if v, ok := q.TryGet(); !ok || v != i {
			t.Fatalf("TryGet = (%d, %v), want (%d, true)", v, ok, i)
		}
	}
	if cap(q.items.buf) != before {
		t.Fatalf("steady-state put/get grew backing array: %d -> %d", before, cap(q.items.buf))
	}
}

func TestQueueGetReleasesConsumedItems(t *testing.T) {
	e := NewEngine()
	q := NewQueue[*int](e)
	v := 7
	q.Put(&v)
	q.Put(new(int)) // keep the window open so the first slot stays in items
	q.items.pop()
	if q.items.buf[0] != nil {
		t.Fatal("consumed slot still references its item")
	}
}

func TestQueuePutFrontOrdersAheadAndWakesGetter(t *testing.T) {
	e := NewEngine()
	q := NewQueue[string](e)

	// Front insertion into a populated queue, into a partially consumed
	// window (head > 0), and into an empty queue with a blocked getter.
	var got []string
	e.Spawn("c", func(p *Proc) {
		q.Put("b")
		q.Put("c")
		q.PutFront("a") // ahead of b, c
		got = append(got, q.Get(p), q.Get(p))
		q.PutFront("b2") // head > 0: reuses the consumed slot
		got = append(got, q.Get(p), q.Get(p))
		for i := 0; i < 2; i++ {
			got = append(got, q.Get(p)) // blocks; producer wakes via PutFront
		}
	})
	e.Spawn("p", func(p *Proc) {
		p.Sleep(time.Microsecond)
		q.PutFront("x")
		p.Sleep(time.Microsecond)
		q.PutFront("y")
	})
	e.Run()
	want := []string{"a", "b", "b2", "c", "x", "y"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order %v, want %v", got, want)
		}
	}
	if q.Puts() != 6 {
		t.Fatalf("puts=%d, want 6", q.Puts())
	}
}

// TestFifoStaysBoundedWithoutDraining: a list that always keeps a few
// elements queued never resets on drain, so pushes must reuse the popped
// front instead of growing the array with every element ever pushed.
func TestFifoStaysBoundedWithoutDraining(t *testing.T) {
	var f fifo[int]
	for i := 0; i < 3; i++ {
		f.push(i)
	}
	for i := 3; i < 100_000; i++ {
		f.push(i)
		if got := f.pop(); got != i-3 {
			t.Fatalf("pop = %d, want %d", got, i-3)
		}
	}
	if f.len() != 3 {
		t.Fatalf("len = %d, want 3", f.len())
	}
	if c := cap(f.buf); c > 16 {
		t.Fatalf("backing array grew to %d for a list of 3 or 4", c)
	}
}
