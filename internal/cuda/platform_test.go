package cuda

import (
	"reflect"
	"strings"
	"testing"

	"hccsim/internal/ccmode"
	"hccsim/internal/platform"
)

// TestExplicitDefaultPlatformByteIdentical is the refactor's core identity:
// naming the default platform explicitly must produce exactly the config the
// legacy constructors build, field for field — otherwise cache keys split
// and golden figures drift.
func TestExplicitDefaultPlatformByteIdentical(t *testing.T) {
	for _, mode := range append(ccmode.Names(), "tdx-h100+pipelined") {
		viaDefault, err := NewConfig(mode)
		if err != nil {
			t.Fatalf("NewConfig(%s): %v", mode, err)
		}
		viaPlatform, err := PlatformConfig("h100-tdx", mode)
		if err != nil {
			t.Fatalf("PlatformConfig(h100-tdx, %s): %v", mode, err)
		}
		if !reflect.DeepEqual(viaDefault, viaPlatform) {
			t.Errorf("mode %s: NewConfig and PlatformConfig(h100-tdx) differ:\n%+v\nvs\n%+v",
				mode, viaDefault, viaPlatform)
		}
	}
}

// TestNewConfigMatchesProfile pins the Table I constructor to the default
// profile's data, and the empty mode name to off.
func TestNewConfigMatchesProfile(t *testing.T) {
	for _, mode := range []string{"off", "tdx-h100"} {
		cfg, err := NewConfig(mode)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Platform != platform.Default || cfg.Mode != mode {
			t.Errorf("NewConfig(%s) = platform %q mode %q", mode, cfg.Platform, cfg.Mode)
		}
		p := platform.MustByName(platform.Default)
		if cfg.TDX != p.TDX || cfg.PCIe != p.PCIe || cfg.HBM != p.HBM ||
			cfg.UVM != p.UVM || cfg.GPU != p.GPU || cfg.Host != p.Host || cfg.NVLink != p.NVLink {
			t.Errorf("NewConfig(%s) params differ from the %s profile", mode, platform.Default)
		}
	}
	if m, err := (Config{}).ResolveMode(); err != nil || m.Name() != "off" {
		t.Errorf("empty Mode resolves to %v, %v; want off", m, err)
	}
}

func TestPlatformConfigRejectsIllegalPair(t *testing.T) {
	_, err := PlatformConfig("b300-bridge", "tdx-h100")
	if err == nil {
		t.Fatal("PlatformConfig accepted tdx-h100 on b300-bridge")
	}
	if !strings.Contains(err.Error(), "tee-io-bridge") {
		t.Errorf("error %q does not list the platform's legal modes", err)
	}
	if _, err := PlatformConfig("nonesuch", "off"); err == nil {
		t.Fatal("PlatformConfig accepted an unknown platform")
	}
	if _, err := PlatformConfig("h100-tdx", "nonesuch"); err == nil {
		t.Fatal("PlatformConfig accepted an unknown mode")
	}
}

func TestNormalizeCanonicalizesPlatform(t *testing.T) {
	cfg, err := NewConfig("off")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Platform = "" // spell the default implicitly
	cfg.Mode = "TDX-H100"
	n, err := cfg.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Platform != platform.Default || n.Mode != "tdx-h100" {
		t.Errorf("Normalize() = platform %q mode %q", n.Platform, n.Mode)
	}

	// Aliased spellings normalize to the same canonical config.
	a, err := PlatformConfig("b300", "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Platform != "b300-bridge" || a.Mode != "off" {
		t.Errorf("PlatformConfig(b300, \"\") = platform %q mode %q", a.Platform, a.Mode)
	}

	// Normalize rejects an illegal pair even when both names are valid.
	bad := a
	bad.Mode = "tdx-h100"
	if _, err := bad.Normalize(); err == nil {
		t.Error("Normalize accepted tdx-h100 on b300-bridge")
	}
}
