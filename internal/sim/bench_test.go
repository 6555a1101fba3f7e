package sim

// Engine microbenchmarks for the hot paths the arena/4-ary-heap rework
// targets. Run with:  go test ./internal/sim -bench=. -benchmem

import (
	"testing"
	"time"
)

// BenchmarkEngineScheduleFire measures the bare schedule->fire cycle: one
// event in flight, arena warm, so steady state should be allocation-free.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	e.Schedule(0, fn) // warm the arena
	e.Run()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Nanosecond, fn)
		e.Run()
	}
}

// BenchmarkEngineScheduleFireDepth256 is the same cycle against a populated
// heap — the sift cost at realistic queue depths.
func BenchmarkEngineScheduleFireDepth256(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	far := 365 * 24 * time.Hour // keep 256 background events pending
	for i := 0; i < 256; i++ {
		e.Schedule(far+Duration(i), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(time.Nanosecond, fn)
		e.RunUntil(e.Now().Add(time.Nanosecond))
	}
}

// BenchmarkQueuePutGet measures the producer/consumer round trip through a
// typed command queue, including the process coroutine switches. Each Put
// schedules the consumer's wake at the current time, so the producer's
// 1 ns pacing sleep always yields rather than advancing the clock inline.
func BenchmarkQueuePutGet(b *testing.B) {
	type cmd struct {
		kind  int
		bytes int64
	}
	e := NewEngine()
	q := NewQueue[cmd](e)
	e.SpawnDaemon("consumer", func(p *Proc) {
		for {
			q.Get(p)
		}
	})
	e.Spawn("producer", func(p *Proc) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.Put(cmd{kind: i & 3, bytes: int64(i)})
			p.Sleep(time.Nanosecond)
		}
	})
	e.Run()
	if st := e.Stats(); st.InlineSleeps != 0 {
		b.Fatalf("%d pacing sleeps completed inline; the benchmark no longer measures context switches", st.InlineSleeps)
	}
}

// BenchmarkQueuePutTryGet isolates the queue data structure itself (no
// blocking, no coroutine switch).
func BenchmarkQueuePutTryGet(b *testing.B) {
	e := NewEngine()
	q := NewQueue[int64](e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Put(int64(i))
		q.TryGet()
	}
}

// BenchmarkSignalBroadcast measures a one-to-N completion broadcast — the
// resume-batching fast path. Each op also spawns nine processes, so it
// carries the per-spawn coroutine setup (iter.Pull's allocations).
func BenchmarkSignalBroadcast(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := NewEngine()
		s := NewSignal(e)
		for w := 0; w < 8; w++ {
			e.Spawn("w", func(p *Proc) { s.Wait(p) })
		}
		e.Spawn("firer", func(p *Proc) {
			p.Sleep(time.Nanosecond)
			s.Fire()
		})
		e.Run()
	}
}
