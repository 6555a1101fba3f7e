package sim

import (
	"fmt"
	"strings"
	"testing"
)

// fenceScenario parks Proc and actor waiters on the completions of three
// items finished at t=10, 20 and 30, and returns the wake trail and the
// engine counters. With perItem, each item completes through its own
// Signal, the shape the fence replaces; otherwise through one Fence.
func fenceScenario(perItem bool) (string, Stats) {
	e := NewEngine()
	f := NewFence(e)
	sigs := []*Signal{NewSignal(e), NewSignal(e), NewSignal(e)}
	var trail []string
	wait := func(p *Proc, target uint64) {
		if perItem {
			sigs[target-1].Wait(p)
		} else {
			f.Wait(p, target)
		}
	}
	waitA := func(a *Actor, target uint64, step func(any)) {
		if perItem {
			sigs[target-1].WaitA(a, step, nil)
		} else {
			f.WaitA(a, target, step, nil)
		}
	}
	targets := []uint64{2, 3, 2, 1, 2, 3, 2}
	for i, target := range targets {
		name := fmt.Sprintf("w%d/t%d", i, target)
		if i%2 == 0 {
			e.Spawn(name, func(p *Proc) {
				wait(p, target)
				trail = append(trail, fmt.Sprintf("%s@%d", name, p.Now()))
			})
			continue
		}
		e.SpawnActor(name, func(a *Actor) {
			waitA(a, target, func(any) {
				trail = append(trail, fmt.Sprintf("%s@%d", name, a.Now()))
				a.Done()
			})
		})
	}
	e.Spawn("producer", func(p *Proc) {
		for i := range sigs {
			p.Sleep(Duration(10))
			if perItem {
				sigs[i].Fire()
			} else {
				f.Advance()
			}
		}
	})
	e.Run()
	return strings.Join(trail, " "), e.Stats()
}

// TestFenceWakesTargetInParkOrder: waiters of both task models parked on
// one target resume at the Advance that reaches it, at one timestamp, in
// park order — the same trail and the same engine counters as a Signal per
// item.
func TestFenceWakesTargetInParkOrder(t *testing.T) {
	got, gotStats := fenceScenario(false)
	want := "w3/t1@10 w0/t2@20 w2/t2@20 w4/t2@20 w6/t2@20 w1/t3@30 w5/t3@30"
	if got != want {
		t.Errorf("fence wake trail\n got %s\nwant %s", got, want)
	}
	ref, refStats := fenceScenario(true)
	if got != ref {
		t.Errorf("fence trail %q differs from per-item signals %q", got, ref)
	}
	if gotStats != refStats {
		t.Errorf("fence counters %+v differ from per-item signals %+v", gotStats, refStats)
	}
}

// TestFenceReachedTargetDoesNotYield: waiting for a count the fence has
// already reached continues inline — the process ahead of an event it
// scheduled for the same time, the actor step before WaitA returns.
func TestFenceReachedTargetDoesNotYield(t *testing.T) {
	e := NewEngine()
	f := NewFence(e)
	var trail []string
	e.Spawn("p", func(p *Proc) {
		f.Advance()
		f.Advance()
		e.Schedule(0, func() { trail = append(trail, "event") })
		f.Wait(p, 0)
		f.Wait(p, 1)
		f.Wait(p, 2)
		trail = append(trail, "proc")
	})
	e.SpawnActor("a", func(a *Actor) {
		f.WaitA(a, 2, func(any) { trail = append(trail, "actor-step") }, nil)
		trail = append(trail, "actor-after")
		a.Done()
	})
	e.Run()
	want := "proc actor-step actor-after event"
	if got := strings.Join(trail, " "); got != want {
		t.Errorf("trail %q, want %q (reached targets must not yield)", got, want)
	}
	if f.Completed() != 2 {
		t.Errorf("Completed() = %d, want 2", f.Completed())
	}
}

// TestFenceDeadlockReport: a task stuck on a fence appears in the deadlock
// report under the fence's label.
func TestFenceDeadlockReport(t *testing.T) {
	e := NewEngine()
	f := NewFence(e).SetLabel("gpu-ch0")
	e.Spawn("stuck-proc", func(p *Proc) { f.Wait(p, 1) })
	e.SpawnActor("stuck-actor", func(a *Actor) {
		f.WaitA(a, 1, func(any) {}, nil)
	})
	defer func() {
		msg, _ := recover().(string)
		for _, want := range []string{
			`proc "stuck-proc" waiting on fence "gpu-ch0"`,
			`actor "stuck-actor" waiting on fence "gpu-ch0"`,
		} {
			if !strings.Contains(msg, want) {
				t.Errorf("deadlock report %q missing %q", msg, want)
			}
		}
	}()
	e.Run()
	t.Fatal("deadlocked engine did not panic")
}
