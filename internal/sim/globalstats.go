package sim

import "sync/atomic"

// Process-wide scheduling counters, aggregated from every engine as its
// Run/RunUntil completes. Campaigns (figure generation, sweeps) build one
// engine per simulated system, so per-engine Stats vanish with the system;
// the global counters let harnesses (cmd/hccbench -json) report sim-wide
// events/sec for a whole campaign. Simulation results never read these —
// they are observability only, so the atomics do not affect determinism.
var (
	gFired    atomic.Uint64
	gSched    atomic.Uint64
	gHandoffs atomic.Uint64
	gInline   atomic.Uint64
	gSteps    atomic.Uint64
	gReused   atomic.Uint64
)

// GlobalStats returns the accumulated counters of every engine run since
// process start (or the last ResetGlobalStats). HeapMaxDepth is per-engine
// and reported as zero here.
func GlobalStats() Stats {
	return Stats{
		Fired:         gFired.Load(),
		Scheduled:     gSched.Load(),
		Handoffs:      gHandoffs.Load(),
		InlineSleeps:  gInline.Load(),
		ActorSteps:    gSteps.Load(),
		AllocsAvoided: gReused.Load(),
	}
}

// ResetGlobalStats zeroes the process-wide counters. Call before a
// measurement window; engines already mid-run flush only the activity that
// happens after their next completed Run/RunUntil, so bracket measurement
// windows around whole campaigns.
func ResetGlobalStats() {
	gFired.Store(0)
	gSched.Store(0)
	gHandoffs.Store(0)
	gInline.Store(0)
	gSteps.Store(0)
	gReused.Store(0)
}

// flushGlobal publishes this engine's counter growth since the previous
// flush. Called when Run or RunUntil finishes (including by panic).
func (e *Engine) flushGlobal() {
	st := e.Stats()
	gFired.Add(st.Fired - e.flushed.Fired)
	gSched.Add(st.Scheduled - e.flushed.Scheduled)
	gHandoffs.Add(st.Handoffs - e.flushed.Handoffs)
	gInline.Add(st.InlineSleeps - e.flushed.InlineSleeps)
	gSteps.Add(st.ActorSteps - e.flushed.ActorSteps)
	gReused.Add(st.AllocsAvoided - e.flushed.AllocsAvoided)
	e.flushed = st
}
