package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestActorSleepChain checks a continuation chain advances the clock like a
// Proc's Sleep sequence, is counted in Stats.ActorSteps, and releases Run
// when the actor calls Done.
func TestActorSleepChain(t *testing.T) {
	eng := NewEngine()
	var ticks []Time
	type frame struct {
		a    *Actor
		left int
	}
	var tick func(any)
	tick = func(x any) {
		f := x.(*frame)
		ticks = append(ticks, f.a.Now())
		if f.left == 0 {
			f.a.Done()
			return
		}
		f.left--
		f.a.Sleep(Duration(10), tick, f)
	}
	eng.SpawnActor("ticker", func(a *Actor) {
		tick(&frame{a: a, left: 3})
	})
	eng.Run()
	want := []Time{0, 10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
	if st := eng.Stats(); st.ActorSteps == 0 {
		t.Error("Stats.ActorSteps = 0 after an actor run")
	}
}

// TestActorDoneTwicePanics pins the liveness-accounting contract.
func TestActorDoneTwicePanics(t *testing.T) {
	eng := NewEngine()
	eng.SpawnActor("once", func(a *Actor) {
		a.Done()
		defer func() {
			if recover() == nil {
				t.Error("second Done did not panic")
			}
		}()
		a.Done()
	})
	eng.Run()
}

// TestActorNegativeSleepClamps mirrors the Proc.Sleep clamping contract:
// a negative duration still rides the event queue at the current time.
func TestActorNegativeSleepClamps(t *testing.T) {
	eng := NewEngine()
	var at Time = 99
	eng.SpawnActor("neg", func(a *Actor) {
		a.Sleep(Duration(-5), func(any) {
			at = a.Now()
			a.Done()
		}, nil)
	})
	eng.Run()
	if at != 0 {
		t.Errorf("negative Sleep fired at %d, want 0", at)
	}
}

// TestResourceFIFOAcrossTaskModels checks that Procs and actors contending
// for one Resource are served strictly in arrival order — the unified wait
// list must not privilege either task model.
func TestResourceFIFOAcrossTaskModels(t *testing.T) {
	eng := NewEngine()
	res := NewResource(eng, 1)
	var order []string

	// The holder keeps the resource busy so everyone below queues up.
	eng.Spawn("holder", func(p *Proc) {
		res.Acquire(p)
		p.Sleep(Duration(100))
		res.Release()
	})
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("c%d", i)
		if i%2 == 0 {
			eng.Spawn(name, func(p *Proc) {
				res.Acquire(p)
				order = append(order, name)
				res.Release()
			})
		} else {
			eng.SpawnActor(name, func(a *Actor) {
				res.AcquireA(a, func(any) {
					order = append(order, name)
					res.Release()
					a.Done()
				}, nil)
			})
		}
	}
	eng.Run()
	if got := strings.Join(order, " "); got != "c0 c1 c2 c3 c4 c5" {
		t.Errorf("service order %q, want spawn order", got)
	}
}

// TestActorSyncFastPaths checks the inline completions: an uncontended
// AcquireA, a non-empty GetA and a fired WaitA run their continuation
// before returning, exactly where the Proc APIs return without yielding.
func TestActorSyncFastPaths(t *testing.T) {
	eng := NewEngine()
	res := NewResource(eng, 1)
	q := NewQueue[int](eng)
	sig := NewSignal(eng)
	var trail []string
	eng.SpawnActor("sync", func(a *Actor) {
		q.Put(7)
		sig.Fire()
		res.AcquireA(a, func(any) { trail = append(trail, "acq") }, nil)
		trail = append(trail, "after-acq")
		res.Release()
		q.GetA(a, func(_ any, v int) { trail = append(trail, fmt.Sprintf("got%d", v)) }, nil)
		trail = append(trail, "after-get")
		sig.WaitA(a, func(any) { trail = append(trail, "waited") }, nil)
		trail = append(trail, "after-wait")
		a.Done()
	})
	eng.Run()
	want := "acq after-acq got7 after-get waited after-wait"
	if got := strings.Join(trail, " "); got != want {
		t.Errorf("trail %q, want %q (sync paths must complete inline)", got, want)
	}
}

// TestDeadlockReportNamesActors checks a parked actor shows up by name,
// with the label of the object it is parked on, in the deadlock panic.
func TestDeadlockReportNamesActors(t *testing.T) {
	eng := NewEngine()
	q := NewQueue[int](eng).SetLabel("inbox")
	eng.SpawnActor("stuck", func(a *Actor) {
		q.GetA(a, func(any, int) {}, nil)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `actor "stuck"`) || !strings.Contains(msg, `queue "inbox"`) {
			t.Errorf("deadlock report %q does not name the actor and its queue", msg)
		}
	}()
	eng.Run()
	t.Fatal("deadlocked engine did not panic")
}

// TestFramePoolZeroesOnPut pins the pooling contract chains rely on: Get
// after Put returns a frame with every field zeroed.
func TestFramePoolZeroesOnPut(t *testing.T) {
	type frame struct {
		n    int
		step func(any)
	}
	var fp FramePool[frame]
	f := fp.Get()
	f.n = 42
	f.step = func(any) {}
	fp.Put(f)
	g := fp.Get()
	if g != f {
		t.Error("FramePool did not recycle the frame")
	}
	if g.n != 0 || g.step != nil {
		t.Error("FramePool.Put did not zero the frame")
	}
}

// mixedScenario runs procs and actors interleaving over a shared Resource,
// Queue and Signal, with deterministic pseudo-random sleeps, and returns
// the recorded trace. Used both by the byte-identity replay test and (at a
// larger scale, without recording) by the -race stress test.
func mixedScenario(record bool, producers, consumers, iters int) []byte {
	eng := NewEngine()
	res := NewResource(eng, 2)
	q := NewQueue[int](eng).SetLabel("work")
	done := NewSignal(eng)
	var buf bytes.Buffer
	log := func(who string, what string) {
		if record {
			fmt.Fprintf(&buf, "%d %s %s\n", eng.Now(), who, what)
		}
	}
	rng := uint64(0x9E3779B97F4A7C15)
	next := func() Duration {
		rng = rng*6364136223846793005 + 1442695040888963407
		return Duration(rng >> 59) // 0..31
	}

	// Producers alternate models; each pushes iters items through the queue
	// while cycling the shared resource.
	total := producers * iters
	for i := 0; i < producers; i++ {
		name := fmt.Sprintf("prod%d", i)
		if i%2 == 0 {
			eng.Spawn(name, func(p *Proc) {
				for n := 0; n < iters; n++ {
					p.Sleep(time.Duration(next()))
					res.Use(p, time.Duration(next()))
					q.Put(n)
					log(name, fmt.Sprintf("put %d", n))
				}
			})
		} else {
			type pframe struct {
				a *Actor
				n int
			}
			var step1, step2 func(any)
			step1 = func(x any) {
				f := x.(*pframe)
				if f.n == iters {
					f.a.Done()
					return
				}
				f.a.Sleep(time.Duration(next()), func(x any) {
					f := x.(*pframe)
					res.UseA(f.a, time.Duration(next()), step2, f)
				}, f)
			}
			step2 = func(x any) {
				f := x.(*pframe)
				q.Put(f.n)
				log(name, fmt.Sprintf("put %d", f.n))
				f.n++
				step1(f)
			}
			eng.SpawnActor(name, func(a *Actor) {
				step1(&pframe{a: a})
			})
		}
	}

	// Consumers drain the queue, mixing models; the last item fires done.
	var consumed int
	for i := 0; i < consumers; i++ {
		name := fmt.Sprintf("cons%d", i)
		if i%2 == 0 {
			eng.SpawnDaemon(name, func(p *Proc) {
				for {
					v := q.Get(p)
					consumed++
					log(name, fmt.Sprintf("got %d", v))
					if consumed == total {
						done.Fire()
					}
					p.Sleep(time.Duration(next()))
				}
			})
		} else {
			type cframe struct{ a *Actor }
			var loop func(any)
			loop = func(x any) {
				f := x.(*cframe)
				q.GetA(f.a, func(x any, v int) {
					f := x.(*cframe)
					consumed++
					log(name, fmt.Sprintf("got %d", v))
					if consumed == total {
						done.Fire()
					}
					f.a.Sleep(time.Duration(next()), loop, f)
				}, f)
			}
			eng.SpawnActorDaemon(name, func(a *Actor) {
				loop(&cframe{a: a})
			})
		}
	}

	eng.Spawn("waiter", func(p *Proc) {
		done.Wait(p)
		log("waiter", fmt.Sprintf("drained at %d", p.Now()))
	})
	eng.Run()
	if record {
		fmt.Fprintf(&buf, "fired=%d steps=%d\n", eng.Stats().Fired, eng.Stats().ActorSteps)
	}
	return buf.Bytes()
}

// TestMixedReplayByteIdentical replays a mixed Proc/Actor engine ten times
// and requires the recorded trace — every operation, timestamp and final
// stat — to be byte-identical across runs: the two task models must
// interleave deterministically.
func TestMixedReplayByteIdentical(t *testing.T) {
	first := mixedScenario(true, 4, 3, 50)
	if len(first) == 0 {
		t.Fatal("scenario recorded nothing")
	}
	for run := 1; run < 10; run++ {
		if got := mixedScenario(true, 4, 3, 50); !bytes.Equal(got, first) {
			t.Fatalf("run %d diverged from run 0:\nfirst:\n%s\ngot:\n%s", run, first, got)
		}
	}
}

// TestMixedStress is the -race stress: many procs and actors hammer one
// Resource and Queue. Any unsynchronized access between the engine's inline
// actor steps and Proc coroutine handoffs shows up under `make race`.
func TestMixedStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	mixedScenario(false, 8, 5, 300)
}
