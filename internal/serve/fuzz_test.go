package serve

import (
	"math"
	"testing"
)

// FuzzServeConfig: Config normalisation never panics, and a configuration
// it accepts has a finite positive rate, a positive request count, an SLO
// target fraction in (0, 1], positive length means, and length spreads that
// are non-negative and keep Mean+Spread and 2*Spread+1 within int. A
// negative request count is always rejected.
func FuzzServeConfig(f *testing.F) {
	f.Add(1.2, 0, 0.0, 0, 0, 0, 0)
	f.Add(0.5, 40, 0.95, 512, 128, 256, 0)
	f.Add(math.NaN(), 10, 0.5, 1, 1, 1, 1)
	f.Add(math.Inf(1), 10, 1.0, 1, 0, 1, 0)
	f.Add(2.0, -5, 1.5, -3, -1, 0, -7)
	f.Add(3.0, 1, -0.1, 1<<40, 1<<40, 1, 0)
	f.Add(1.0, 1, 0.9, math.MaxInt, 1, 1, math.MaxInt/2+1)
	f.Add(1.0, 1, 0.9, 0, 5, 7, -2)
	f.Fuzz(func(t *testing.T, rate float64, requests int, frac float64, promptMean, promptSpread, outputMean, outputSpread int) {
		cfg := Config{
			RateQPS:      rate,
			Requests:     requests,
			SLO:          SLO{TargetFrac: frac},
			PromptTokens: LengthDist{Mean: promptMean, Spread: promptSpread},
			OutputTokens: LengthDist{Mean: outputMean, Spread: outputSpread},
		}
		got, _, _, _, err := cfg.withDefaults()
		if err != nil {
			return
		}
		if math.IsNaN(got.RateQPS) || math.IsInf(got.RateQPS, 0) || got.RateQPS <= 0 {
			t.Errorf("rate %v accepted as %v", rate, got.RateQPS)
		}
		if requests < 0 || got.Requests <= 0 {
			t.Errorf("requests %d accepted as %d", requests, got.Requests)
		}
		if !(got.SLO.TargetFrac > 0 && got.SLO.TargetFrac <= 1) {
			t.Errorf("target fraction %v accepted as %v", frac, got.SLO.TargetFrac)
		}
		if got.PromptTokens.Mean <= 0 || got.OutputTokens.Mean <= 0 {
			t.Errorf("length means %d/%d accepted as %d/%d", promptMean, outputMean, got.PromptTokens.Mean, got.OutputTokens.Mean)
		}
		for _, d := range []LengthDist{got.PromptTokens, got.OutputTokens} {
			if d.Spread < 0 || d.Spread > (math.MaxInt-1)/2 || d.Mean > math.MaxInt-d.Spread {
				t.Errorf("length distribution %v accepted", d)
			}
		}
	})
}
