package workloads

import (
	"testing"

	"hccsim/internal/sim"
)

// TestSchedulingCountersPinned runs a fixed grid serially — every app in
// its copy and (where it has one) UVM variant under no protection, the
// paper's bounce-buffer TDX and the pipelined TEE-IO bridge — and pins the
// engine's scheduling counters. The logical counters (Fired, Scheduled,
// Handoffs, ActorSteps) describe the simulation itself, so a host-side
// speedup must leave them exactly as they are. InlineSleeps is a physical
// count of host work saved; it is pinned too so that a change to the
// inline-sleep rule shows up here rather than only as a timing shift.
func TestSchedulingCountersPinned(t *testing.T) {
	sim.ResetGlobalStats()
	for _, s := range All() {
		for _, m := range []Mode{CopyExecute, UVM} {
			if m == UVM && !s.UVMCapable {
				continue
			}
			for _, mode := range []string{"off", "tdx-h100", "tee-io-bridge+pipelined"} {
				Execute(s, m, config(t, mode))
			}
		}
	}
	got := sim.GlobalStats()
	want := sim.Stats{
		Fired:        603655,
		Scheduled:    603655,
		Handoffs:     118668,
		InlineSleeps: 57882,
		ActorSteps:   491926,
	}
	got.AllocsAvoided, got.HeapMaxDepth = 0, 0
	if got != want {
		t.Errorf("scheduling counters moved:\n got %+v\nwant %+v", got, want)
	}
}
