// Package bench is the simulator's performance-baseline harness: it runs a
// fixed suite of engine microbenchmarks plus the full figure campaign,
// reports the results as a JSON baseline (the committed BENCH_<date>.json
// files), and compares a fresh run against a committed baseline, flagging
// regressions beyond a tolerance. cmd/hccbench -json/-compare and the
// `make bench-check` CI job are thin wrappers over this package.
//
// Unlike the rest of the repo, everything here is intentionally wall-clock:
// the whole point is to measure the machine. Simulated results are never
// derived from these numbers.
package bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"hccsim/internal/ccmode"
	"hccsim/internal/cuda"
	"hccsim/internal/figures"
	"hccsim/internal/serve"
	"hccsim/internal/sim"
	"hccsim/internal/units"
)

// SchemaVersion is bumped when the metric set changes incompatibly.
const SchemaVersion = 1

// DefaultTolerance is the relative change treated as a regression: 10%,
// per the repo's benchmark-regression policy.
const DefaultTolerance = 0.10

// Direction states which way a metric is better.
type Direction string

// Metric directions.
const (
	HigherIsBetter Direction = "higher"
	LowerIsBetter  Direction = "lower"
)

// Metric is one measured quantity of a baseline run. Tol, when non-zero,
// is a per-metric regression tolerance that overrides the suite-wide one in
// Compare — used by gates tighter than the 10% default, like the 2% bound
// on the observability layer's disabled-path cost.
type Metric struct {
	Name   string    `json:"name"`
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Better Direction `json:"better"`
	Tol    float64   `json:"tol,omitempty"`
}

// Baseline is one complete harness run — the schema of BENCH_<date>.json.
type Baseline struct {
	Schema     int      `json:"schema"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Metrics    []Metric `json:"metrics"`
	// Counters are sim-wide scheduler totals for the figure campaign —
	// informational (they describe work done, not speed) and useful for
	// spotting structural drift: events fired is deterministic for a given
	// code version, so a change means the simulation itself changed.
	Counters map[string]uint64 `json:"counters"`
}

// Collect runs the full harness suite and returns the baseline. parallel
// sizes the figure campaign's worker pool (<= 0 means GOMAXPROCS); date
// stamps the result (the caller owns the wall-clock date so this package
// stays testable).
func Collect(parallel int, date string) (Baseline, error) {
	b := Baseline{
		Schema:     SchemaVersion,
		Date:       date,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	b.Metrics = append(b.Metrics, engineScheduleFire(), procContextSwitch(), actorStep(), queuePutGet(), modeDispatch(), obsDisabledOverhead())
	steady, err := serveSteadyState()
	if err != nil {
		return Baseline{}, err
	}
	b.Metrics = append(b.Metrics, steady)
	figs, counters, err := figureCampaign(parallel)
	if err != nil {
		return Baseline{}, err
	}
	b.Metrics = append(b.Metrics, figs...)
	b.Counters = counters
	return b, nil
}

// engineScheduleFire measures the bare event-loop rate: schedule batches of
// no-op events and drain them, arena warm.
func engineScheduleFire() Metric {
	const rounds, per = 400, 5000
	e := sim.NewEngine()
	fn := func() {}
	// Warm-up round so arena growth is excluded from the measurement.
	for i := 0; i < per; i++ {
		e.Schedule(sim.Duration(i), fn)
	}
	e.Run()
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for i := 0; i < per; i++ {
			e.Schedule(sim.Duration(i), fn)
		}
		e.Run()
	}
	elapsed := time.Since(start).Seconds()
	return Metric{
		Name:   "engine_schedule_fire",
		Value:  rounds * per / elapsed,
		Unit:   "events/sec",
		Better: HigherIsBetter,
	}
}

// procContextSwitch measures the process resume round trip (schedule,
// handoff, yield) through repeated 1 ns sleeps. A lone sleeper would
// advance the clock inline without yielding (Proc.Sleep's fast path), so a
// partner process sleeps in lockstep: each sleep then finds the other's
// same-time wake pending and takes a real channel round trip. It panics if
// any sleep still completes inline, since the metric would then stop
// measuring a handoff.
func procContextSwitch() Metric {
	const n = 300000
	e := sim.NewEngine()
	var elapsed float64
	stop := false
	e.Spawn("switcher", func(p *sim.Proc) {
		for i := 0; i < 1000; i++ { // warm-up
			p.Sleep(time.Nanosecond)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			p.Sleep(time.Nanosecond)
		}
		elapsed = time.Since(start).Seconds()
		stop = true
	})
	e.Spawn("partner", func(p *sim.Proc) {
		for !stop {
			p.Sleep(time.Nanosecond)
		}
	})
	e.Run()
	if st := e.Stats(); st.InlineSleeps != 0 {
		panic(fmt.Sprintf("bench: proc_context_switch slept inline %d times", st.InlineSleeps))
	}
	return Metric{
		Name:   "proc_context_switch",
		Value:  2 * n / elapsed, // both processes switch once per timed iteration
		Unit:   "switches/sec",
		Better: HigherIsBetter,
	}
}

// stepBench is the actorStep state machine: warm-up sleeps (negative i),
// then n timed steps through the inline resume path.
type stepBench struct {
	a       *sim.Actor
	i, n    int
	start   time.Time
	elapsed *float64
}

func stepBenchStep(x any) {
	f := x.(*stepBench)
	if f.i == 0 {
		f.start = time.Now()
	}
	if f.i == f.n {
		*f.elapsed = time.Since(f.start).Seconds()
		f.a.Done()
		return
	}
	f.i++
	f.a.Sleep(time.Nanosecond, stepBenchStep, f)
}

// actorStep measures the run-to-completion resume path: an actor rescheduled
// through repeated 1 ns sleeps, each resume an inline continuation step with
// no channel operation and no goroutine switch (the counterpart of
// proc_context_switch for the actor runtime).
func actorStep() Metric {
	const n = 2000000
	e := sim.NewEngine()
	var elapsed float64
	e.SpawnActor("stepper", func(a *sim.Actor) {
		f := &stepBench{a: a, i: -1000, n: n, elapsed: &elapsed}
		stepBenchStep(f)
	})
	e.Run()
	return Metric{
		Name:   "actor_step",
		Value:  n / elapsed,
		Unit:   "steps/sec",
		Better: HigherIsBetter,
	}
}

// queuePutGet measures the typed command-queue data path (no blocking).
func queuePutGet() Metric {
	const n = 5000000
	type cmd struct {
		kind  int
		bytes int64
	}
	e := sim.NewEngine()
	q := sim.NewQueue[cmd](e)
	start := time.Now()
	for i := 0; i < n; i++ {
		q.Put(cmd{kind: i & 3, bytes: int64(i)})
		q.TryGet()
	}
	elapsed := time.Since(start).Seconds()
	return Metric{
		Name:   "queue_put_get",
		Value:  n / elapsed,
		Unit:   "ops/sec",
		Better: HigherIsBetter,
	}
}

// modeDispatch measures the protection-mode interface dispatch that
// replaced the old `if cfg.CC` branches on the launch/fault hot paths.
// Every kernel launch and fault batch goes through these virtual calls, so
// the mode layer must stay branch-cheap; the gate catches a backend
// growing per-call work (map lookups, allocations) on this path. It panics
// if the registry or the dispatch itself is broken — harness setup errors,
// not measurement outcomes.
func modeDispatch() Metric {
	const n = 2000000
	modes := make([]ccmode.Mode, 0, len(ccmode.Names()))
	for _, name := range ccmode.Names() {
		m, err := ccmode.ByName(name)
		if err != nil {
			panic(err) // Names() entries always resolve
		}
		modes = append(modes, m)
	}
	var sink time.Duration
	var sinkInt int
	start := time.Now()
	for i := 0; i < n; i++ {
		m := modes[i%len(modes)]
		sink += m.LaunchPost(600, 1050)
		sinkInt += m.FaultBatch(64, 1) + m.FaultHypercalls(2)
		if m.SoftwareCryptoPath() {
			sinkInt++
		}
	}
	elapsed := time.Since(start).Seconds()
	if sink == 0 && sinkInt == 0 {
		panic("bench: mode dispatch produced no work")
	}
	return Metric{
		Name:   "mode_dispatch",
		Value:  n / elapsed,
		Unit:   "dispatches/sec",
		Better: HigherIsBetter,
	}
}

// obsDisabledOverhead measures the instrumented memcpy hot path with no
// observer attached: blocking 4 KiB pinned H2D copies under tdx-h100, the
// chain that now threads an obs.Span through its pooled frame. With the
// observer nil every span call is a single nil check, so this rate pins the
// disabled-path cost of the observability layer. Its Tol is 2% — far
// tighter than the suite default — because "off means free" is a documented
// contract, not a tuning goal. Setup errors panic, as in modeDispatch.
func obsDisabledOverhead() Metric {
	const warm, n, copyBytes = 500, 30000, 4096
	cfg, err := cuda.NewConfig("tdx-h100")
	if err != nil {
		panic(err) // tdx-h100 always resolves
	}
	eng := sim.NewEngine()
	rt := cuda.New(eng, cfg)
	var elapsed float64
	eng.Spawn("copies", func(p *sim.Proc) {
		c := rt.Bind(p)
		dst := c.Malloc("bench.dst", copyBytes)
		src := c.MallocHost("bench.src", copyBytes)
		for i := 0; i < warm; i++ {
			c.Memcpy(dst, src, copyBytes)
		}
		start := time.Now()
		for i := 0; i < n; i++ {
			c.Memcpy(dst, src, copyBytes)
		}
		elapsed = time.Since(start).Seconds()
	})
	eng.Run()
	return Metric{
		Name:   "obs_disabled_overhead",
		Value:  n / elapsed,
		Unit:   "copies/sec",
		Better: HigherIsBetter,
		Tol:    0.02,
	}
}

// serveSteadyState measures the request-level serving simulator's host-CPU
// cost: one default-workload run (160 requests, continuous batching, KV
// accounting, streaming histograms) at the capacity knee, reported as
// scheduler iterations per wall second. A warm-up run first memoizes the
// per-mode step-cost calibration so the metric tracks the steady-state
// scheduler loop, not one-time calibration.
func serveSteadyState() (Metric, error) {
	cfg := serve.Config{Backend: "vllm", Quant: "bf16", Mode: "tdx-h100", RateQPS: 1.4}
	if _, err := serve.Run(cfg); err != nil { // warm-up: calibration memo
		return Metric{}, err
	}
	start := time.Now()
	rep, err := serve.Run(cfg)
	if err != nil {
		return Metric{}, err
	}
	elapsed := time.Since(start).Seconds()
	return Metric{
		Name:   "serve_steady_state",
		Value:  float64(rep.Iterations) / elapsed,
		Unit:   "iters/sec",
		Better: HigherIsBetter,
	}, nil
}

// figureCampaign regenerates the complete figure set through the worker
// pool and reports wall-clock, sim-wide events/sec, and the scheduler
// counters of the campaign.
func figureCampaign(parallel int) ([]Metric, map[string]uint64, error) {
	sim.ResetGlobalStats()
	start := time.Now()
	tables, err := figures.GenerateAll(parallel)
	wall := time.Since(start)
	if err != nil {
		return nil, nil, err
	}
	if len(tables) != len(figures.IDs()) {
		return nil, nil, fmt.Errorf("bench: figure campaign produced %d tables, want %d", len(tables), len(figures.IDs()))
	}
	gs := sim.GlobalStats()
	metrics := []Metric{
		{
			Name:   "figure_set_wall",
			Value:  units.ToMS(wall),
			Unit:   "ms",
			Better: LowerIsBetter,
		},
		{
			Name:   "figure_set_sim_events",
			Value:  float64(gs.Fired) / wall.Seconds(),
			Unit:   "events/sec",
			Better: HigherIsBetter,
		},
	}
	counters := map[string]uint64{
		"events_fired":   gs.Fired,
		"events_sched":   gs.Scheduled,
		"handoffs":       gs.Handoffs,
		"inline_sleeps":  gs.InlineSleeps,
		"actor_steps":    gs.ActorSteps,
		"allocs_avoided": gs.AllocsAvoided,
	}
	return metrics, counters, nil
}

// Delta is one metric's baseline-vs-current comparison.
type Delta struct {
	Name      string
	Unit      string
	Better    Direction
	Old, New  float64
	Change    float64 // fractional change, signed as measured (new/old - 1)
	Regressed bool
}

// Compare matches current against baseline metric by metric. A metric
// regresses when it moves in its worse direction by more than tol
// (fractional, e.g. 0.10); a non-zero Metric.Tol in the baseline overrides
// tol for that metric alone. Metrics present in only one of the two runs
// are skipped; comparing runs with no metrics in common is an error. So is
// a NaN, infinite or negative tolerance, given as tol or read from a
// baseline Metric.Tol: no change exceeds NaN, so it would pass every
// metric, and a negative one would flag noise as a regression.
func Compare(baseline, current Baseline, tol float64) ([]Delta, error) {
	if !validTol(tol) {
		return nil, fmt.Errorf("bench: tolerance %v must be finite and >= 0", tol)
	}
	cur := make(map[string]Metric, len(current.Metrics))
	for _, m := range current.Metrics {
		cur[m.Name] = m
	}
	var deltas []Delta
	for _, old := range baseline.Metrics {
		if !validTol(old.Tol) {
			return nil, fmt.Errorf("bench: baseline metric %s: tolerance %v must be finite and >= 0", old.Name, old.Tol)
		}
		now, ok := cur[old.Name]
		if !ok || old.Value == 0 {
			continue
		}
		change := now.Value/old.Value - 1
		d := Delta{
			Name: old.Name, Unit: old.Unit, Better: old.Better,
			Old: old.Value, New: now.Value, Change: change,
		}
		mtol := tol
		if old.Tol > 0 {
			mtol = old.Tol
		}
		switch old.Better {
		case LowerIsBetter:
			d.Regressed = change > mtol
		default:
			d.Regressed = change < -mtol
		}
		deltas = append(deltas, d)
	}
	if len(deltas) == 0 {
		return nil, fmt.Errorf("bench: no metrics in common between baseline (%s) and current run", baseline.Date)
	}
	return deltas, nil
}

// validTol reports whether t is finite and non-negative.
func validTol(t float64) bool { return t >= 0 && !math.IsInf(t, 1) }

// Regressions filters deltas down to the failures.
func Regressions(deltas []Delta) []Delta {
	var out []Delta
	for _, d := range deltas {
		if d.Regressed {
			out = append(out, d)
		}
	}
	return out
}

// WriteFile writes the baseline as indented JSON.
func WriteFile(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadFile loads a baseline written by WriteFile.
func ReadFile(path string) (Baseline, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Baseline{}, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return Baseline{}, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if b.Schema != SchemaVersion {
		return Baseline{}, fmt.Errorf("bench: %s has schema %d, this binary writes %d — regenerate the baseline", path, b.Schema, SchemaVersion)
	}
	return b, nil
}
