package batch

import (
	"math"
	"strings"
	"testing"

	"hccsim/internal/ccmode"
	"hccsim/internal/platform"
	"hccsim/internal/serve"
)

// FuzzParseAxes: a spec list ParseAxes accepts (specs separated by ";")
// has only finite values, canonical parameter, mode and platform names,
// and no axis twice.
func FuzzParseAxes(f *testing.F) {
	for _, s := range []string{
		"PCIeGBps=8,16, 32", "PCIe.EffectiveGBps=8", "PCIeEffectiveGBps=8", "PCIeGBps=8;PCIe.EffectiveGBps=16",
		"PCIeGBps=8,fast", "PCIeGBps=NaN", "Hypercall=-inf", "NVLink.Enabled=1", "TDX.CryptoAlg=1",
		"cc.mode=off,tdx,tee-io-bridge+pipelined", "cc.mode=sgx", "hw.platform=h100-tdx, b300",
		"hw.platform=h100-tdx;hw.platform=b300-bridge", "serve.rate=1.2,1.6", "serve.rate=0", "=8,16", "PCIeGBps=",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, list string) {
		axes, err := ParseAxes(strings.Split(list, ";"))
		if err != nil {
			return
		}
		seen := map[string]bool{}
		for _, ax := range axes {
			if seen[ax.Param] {
				t.Fatalf("%q: axis %s accepted twice", list, ax.Param)
			}
			seen[ax.Param] = true
			for _, v := range ax.Values {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("%q: axis %s accepted non-finite value %g", list, ax.Param, v)
				}
			}
			switch ax.Param {
			case ModeAxis:
				for _, m := range ax.Modes {
					if cm, err := ccmode.ByName(m); err != nil || cm.Name() != m {
						t.Fatalf("%q: mode %q is not canonical", list, m)
					}
				}
			case PlatformAxis:
				for _, p := range ax.Platforms {
					if cp, err := platform.ByName(p); err != nil || cp.Name() != p {
						t.Fatalf("%q: platform %q is not canonical", list, p)
					}
				}
			case ServeRateAxis:
				for _, v := range ax.Values {
					if err := serve.CheckRate(v); err != nil {
						t.Fatalf("%q: %v", list, err)
					}
				}
			default:
				if c, err := Canonical(ax.Param); err != nil || c != ax.Param {
					t.Fatalf("%q: parameter %q is not canonical (%q, %v)", list, ax.Param, c, err)
				}
			}
		}
	})
}
