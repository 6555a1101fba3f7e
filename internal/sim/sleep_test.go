package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// Tests for Proc.Sleep's inline fast path: the clock may advance without a
// yield only when the wake event would be the next one dispatched anyway.

// yieldSleep is Sleep without the fast path: schedule the wake event and
// yield, exactly as every Sleep did before the fast path existed.
func yieldSleep(p *Proc, d Duration) {
	if d < 0 {
		d = 0
	}
	p.eng.scheduleProc(p.eng.now.Add(d), p)
	p.yield()
}

// spawnPacer starts a process that sleeps 1 ns at a time until *stop. Its
// same-time wake stays pending, so another process sleeping 1 ns in
// lockstep takes a real handoff on every sleep instead of the fast path.
func spawnPacer(e *Engine, stop *bool) {
	e.Spawn("pacer", func(p *Proc) {
		for !*stop {
			p.Sleep(time.Nanosecond)
		}
	})
}

// An event already due at exactly now+d was inserted first, so it runs
// before the sleeper; one due a nanosecond later runs after it, and then
// the sleep needs no yield.
func TestSleepYieldsToEventAtWakeTime(t *testing.T) {
	for _, tc := range []struct {
		at     Duration
		want   string
		inline uint64
	}{
		{10, "event@10ns proc@10ns", 0},
		{11, "proc@10ns event@11ns", 1},
	} {
		e := NewEngine()
		var log []string
		e.Schedule(tc.at, func() { log = append(log, "event@"+e.Now().String()) })
		e.Spawn("sleeper", func(p *Proc) {
			p.Sleep(10)
			log = append(log, "proc@"+p.Now().String())
		})
		e.Run()
		if got := strings.Join(log, " "); got != tc.want {
			t.Errorf("event at %v: order %q, want %q", tc.at, got, tc.want)
		}
		if st := e.Stats(); st.InlineSleeps != tc.inline {
			t.Errorf("event at %v: InlineSleeps = %d, want %d", tc.at, st.InlineSleeps, tc.inline)
		}
	}
}

// Sleep(0) still lets an already-scheduled same-time event run first.
func TestSleepZeroYieldsToSameTimeEvent(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("sleeper", func(p *Proc) {
		e.Schedule(0, func() { log = append(log, "event") })
		p.Sleep(0)
		log = append(log, "proc")
		p.Sleep(0) // nothing pending now: inline
		log = append(log, "proc")
	})
	e.Run()
	if got := strings.Join(log, " "); got != "event proc proc" {
		t.Fatalf("order %q, want %q", got, "event proc proc")
	}
	if st := e.Stats(); st.InlineSleeps != 1 {
		t.Fatalf("InlineSleeps = %d, want 1", st.InlineSleeps)
	}
}

// A sleep that ends past RunUntil's deadline parks the process exactly as
// a yielding sleep would: the clock stops at the deadline, and a later Run
// resumes the process at now+d. A sleep that ends at the deadline itself is
// within reach and completes inline.
func TestSleepInlineRespectsRunUntilDeadline(t *testing.T) {
	e := NewEngine()
	var woke []Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(10) // ends at 10, within the deadline: inline
		woke = append(woke, p.Now())
		p.Sleep(10) // ends at 20, the deadline itself: inline
		woke = append(woke, p.Now())
		p.Sleep(30) // ends at 50, past the deadline: parks
		woke = append(woke, p.Now())
	})
	if now := e.RunUntil(20); now != 20 {
		t.Fatalf("RunUntil returned %v, want 20ns", now)
	}
	if fmt.Sprint(woke) != "[10ns 20ns]" {
		t.Fatalf("wake times before the deadline = %v, want [10ns 20ns]", woke)
	}
	if e.Blocked() != 1 || e.Pending() != 1 {
		t.Fatalf("Blocked() = %d, Pending() = %d; want the sleeper parked on its wake event", e.Blocked(), e.Pending())
	}
	if st := e.Stats(); st.InlineSleeps != 2 || st.Handoffs != 3 {
		t.Fatalf("InlineSleeps = %d, Handoffs = %d; want 2 and 3", st.InlineSleeps, st.Handoffs)
	}
	if end := e.Run(); end != 50 {
		t.Fatalf("Run ended at %v, want 50ns", end)
	}
	if fmt.Sprint(woke) != "[10ns 20ns 50ns]" {
		t.Fatalf("wake times = %v, want [10ns 20ns 50ns]", woke)
	}
}

// A process that an Await chain resumes from inside an actor step must not
// advance the clock inline: the rest of that step runs when the process
// yields, and it must still see the clock the step started at.
func TestSleepAfterAwaitYieldsToRestOfStep(t *testing.T) {
	e := NewEngine()
	var log []string
	e.Spawn("caller", func(p *Proc) {
		p.Await(func(a *Actor, step func(any), state any) {
			a.Sleep(5, func(any) {
				step(state)
				log = append(log, "step-tail@"+e.Now().String())
			}, nil)
		})
		p.Sleep(10)
		log = append(log, "proc@"+p.Now().String())
		p.Sleep(10) // resumed from the engine loop now: inline
		log = append(log, "proc@"+p.Now().String())
	})
	e.Run()
	want := "step-tail@5ns proc@15ns proc@25ns"
	if got := strings.Join(log, " "); got != want {
		t.Fatalf("order %q, want %q", got, want)
	}
	if st := e.Stats(); st.InlineSleeps != 1 {
		t.Fatalf("InlineSleeps = %d, want 1", st.InlineSleeps)
	}
}

// mixRun builds a seeded random mix of processes and actors contending for
// a resource, a queue and a signal, runs it, and returns the event log and
// the engine's counters. sleep is how the processes sleep.
func mixRun(seed int64, sleep func(p *Proc, d Duration)) (string, Stats) {
	rng := rand.New(rand.NewSource(seed))
	e := NewEngine()
	var log strings.Builder
	rec := func(who, what string) { fmt.Fprintf(&log, "%v %s %s\n", e.Now(), who, what) }
	res := NewResource(e, 1+rng.Intn(2))
	q := NewQueue[int](e)
	sig := NewSignal(e)
	delay := func(r *rand.Rand) Duration { return Duration(r.Intn(4) * r.Intn(6)) } // many zeros and ties

	e.SpawnDaemon("consumer", func(p *Proc) {
		for {
			v := q.Get(p)
			rec("consumer", fmt.Sprint("got ", v))
			sleep(p, Duration(v%3))
		}
	})
	nprocs := 2 + rng.Intn(3)
	for i := 0; i < nprocs; i++ {
		name := fmt.Sprint("proc", i)
		r := rand.New(rand.NewSource(rng.Int63()))
		e.Spawn(name, func(p *Proc) {
			for op := 0; op < 12; op++ {
				switch k := r.Intn(7); {
				case k < 2:
					sleep(p, delay(r))
					rec(name, "slept")
				case k == 2:
					res.Acquire(p)
					rec(name, "acquired")
					sleep(p, delay(r))
					res.Release()
				case k == 3:
					q.Put(op)
					sleep(p, delay(r))
				case k == 4:
					d := delay(r)
					p.Await(func(a *Actor, step func(any), state any) { res.UseA(a, d, step, state) })
					rec(name, "awaited")
				case k == 5:
					d := delay(r)
					p.Await(func(a *Actor, step func(any), state any) {
						a.Sleep(d, func(any) {
							step(state)
							rec(name, "chain tail")
						}, nil)
					})
					rec(name, "awaited")
				case i > 0:
					sig.Wait(p)
					rec(name, "signalled")
				}
			}
			if i == 0 {
				sig.Fire()
			}
			rec(name, "done")
		})
	}
	nactors := 1 + rng.Intn(3)
	for i := 0; i < nactors; i++ {
		name := fmt.Sprint("actor", i)
		r := rand.New(rand.NewSource(rng.Int63()))
		left := 10
		var step func(any)
		step = func(x any) {
			a := x.(*Actor)
			rec(name, "step")
			if left--; left == 0 {
				a.Done()
				return
			}
			switch r.Intn(3) {
			case 0:
				a.Sleep(delay(r), step, a)
			case 1:
				res.UseA(a, delay(r), step, a)
			default:
				sig.WaitA(a, step, a)
			}
		}
		e.SpawnActor(name, func(a *Actor) { step(a) })
	}
	e.Run()
	return log.String(), e.Stats()
}

// Differential: over seeded random Proc+Actor mixes, Sleep's fast path
// replays exactly what always yielding does — same event order, same
// clock, same logical counters.
func TestSleepInlineMatchesYield(t *testing.T) {
	var inline uint64
	for seed := int64(1); seed <= 200; seed++ {
		fastLog, fast := mixRun(seed, (*Proc).Sleep)
		slowLog, slow := mixRun(seed, yieldSleep)
		if fastLog != slowLog {
			t.Fatalf("seed %d: event logs differ\nfast path:\n%s\nyield:\n%s", seed, fastLog, slowLog)
		}
		if fast.Fired != slow.Fired || fast.Scheduled != slow.Scheduled || fast.Handoffs != slow.Handoffs {
			t.Fatalf("seed %d: counters differ: fast path %+v, yield %+v", seed, fast, slow)
		}
		if slow.InlineSleeps != 0 {
			t.Fatalf("seed %d: yielding sleeps counted %d inline", seed, slow.InlineSleeps)
		}
		inline += fast.InlineSleeps
	}
	if inline == 0 {
		t.Fatal("no sleep took the fast path; the differential compared nothing")
	}
}

// InlineSleeps reaches the process-wide aggregate alongside Handoffs.
func TestGlobalStatsCountInlineSleeps(t *testing.T) {
	ResetGlobalStats()
	e := NewEngine()
	e.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(time.Nanosecond)
		}
	})
	e.Run()
	if gs := GlobalStats(); gs.InlineSleeps != 5 || gs.Handoffs != 6 {
		t.Fatalf("GlobalStats InlineSleeps = %d, Handoffs = %d; want 5 and 6", gs.InlineSleeps, gs.Handoffs)
	}
}
