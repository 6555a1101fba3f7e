package serve

// Capacity is the result of a max-sustainable-QPS search.
type Capacity struct {
	// MaxQPS is the highest probed rate whose SLO attainment met the
	// target; 0 when even the lowest probe missed it.
	MaxQPS float64
	// Probes counts full serving runs the search spent.
	Probes int
	// AtCapacity is the report of the highest attaining probe (zero value
	// when MaxQPS is 0).
	AtCapacity Report
}

// capacitySearchIters fixes the bisection depth: the bracket is halved
// this many times, so the returned rate is within lo*2^-9 (~0.2%) of the
// true knee — finer than the mode-to-mode capacity gaps it exists to
// resolve, and deterministic because every probe replays the same seeded
// workload shape at a scaled rate.
const capacitySearchIters = 9

// FindCapacity binary-searches the maximum offered rate (QPS) at which the
// configuration still meets its SLO attainment target. cfg.RateQPS seeds
// the initial guess (0 means 1; otherwise it must pass CheckRate); a Trace
// is dropped, since replayed gaps cannot be rate-scaled.
func FindCapacity(cfg Config) (Capacity, error) {
	if cfg.RateQPS == 0 {
		cfg.RateQPS = 1
	}
	cfg.Trace = nil
	// Resolve defaults now: the probe below compares attainment against the
	// SLO target, which is zero (always attained) until defaulted.
	cfg, _, _, _, err := cfg.withDefaults()
	if err != nil {
		return Capacity{}, err
	}
	var res Capacity
	probe := func(rate float64) (bool, Report, error) {
		c := cfg
		c.RateQPS = rate
		r, err := Run(c)
		if err != nil {
			return false, Report{}, err
		}
		res.Probes++
		return r.SLOAttainment >= c.SLO.TargetFrac, r, nil
	}

	// Expansion: grow/shrink by doubling until the knee is bracketed in
	// [lo, hi] with lo attaining and hi not.
	lo, hi := 0.0, cfg.RateQPS
	r0, rep, err := probe(hi)
	if err != nil {
		return Capacity{}, err
	}
	if r0 {
		lo = hi
		res.AtCapacity = rep
		for i := 0; i < 16; i++ {
			hi *= 2
			ok, rep, err := probe(hi)
			if err != nil {
				return Capacity{}, err
			}
			if !ok {
				break
			}
			lo = hi
			res.AtCapacity = rep
		}
	} else {
		for i := 0; i < 16 && lo == 0; i++ {
			hi /= 2
			ok, rep, err := probe(hi)
			if err != nil {
				return Capacity{}, err
			}
			if ok {
				lo = hi
				res.AtCapacity = rep
			}
		}
		if lo == 0 {
			return res, nil // SLO unattainable even nearly unloaded
		}
		hi = lo * 2
	}

	// Bisection on the bracketed knee.
	for i := 0; i < capacitySearchIters; i++ {
		mid := (lo + hi) / 2
		ok, rep, err := probe(mid)
		if err != nil {
			return Capacity{}, err
		}
		if ok {
			lo = mid
			res.AtCapacity = rep
		} else {
			hi = mid
		}
	}
	res.MaxQPS = lo
	return res, nil
}
