package workloads

import (
	"hccsim/internal/cuda"
	"hccsim/internal/obs"
	"hccsim/internal/sim"
	"hccsim/internal/trace"
)

// Result is one completed application run.
type Result struct {
	Spec Spec
	Mode Mode
	// CCMode is the canonical name of the resolved protection mode.
	CCMode  string
	Runtime *cuda.Runtime
	End     sim.Time
}

// Execute runs the application on a fresh simulated system and returns the
// runtime, with its recorded trace attached, for analysis. cfg is usually
// cuda.NewConfig's Table I system under one protection mode; pass a
// modified config for sweeps.
func Execute(spec Spec, mode Mode, cfg cuda.Config) Result {
	return ExecuteObserved(spec, mode, cfg, nil)
}

// ExecuteObserved is Execute with an observability layer attached for the
// whole run: the observer is bound to the fresh engine before the host
// process spawns, every substrate opens spans on it, and the end-of-run
// counters are published into its metrics registry. A nil observer records
// nothing (plain Execute).
func ExecuteObserved(spec Spec, mode Mode, cfg cuda.Config, o *obs.Observer) Result {
	eng := sim.NewEngine()
	rt := cuda.New(eng, cfg)
	rt.SetTracer(trace.New())
	if o != nil {
		o.Bind(eng)
		rt.SetObserver(o)
	}
	eng.Spawn("host:"+spec.Name, func(p *sim.Proc) {
		spec.Run(rt.Bind(p), mode)
	})
	end := eng.Run()
	if o != nil {
		rt.PublishMetrics()
	}
	return Result{
		Spec: spec, Mode: mode,
		CCMode:  rt.Mode().Name(),
		Runtime: rt, End: end,
	}
}
