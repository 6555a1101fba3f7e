package platform

import "testing"

// FuzzPlatformByName: resolution never panics, and an accepted name's
// canonical form resolves back to itself.
func FuzzPlatformByName(f *testing.F) {
	for _, s := range []string{"", "h100-tdx", "table1", "  H100-TDX ", "sev-snp", "GB300", "grace", "h200-mystery"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		p, err := ByName(name)
		if err != nil {
			return
		}
		if back, err := ByName(p.Name()); err != nil || back.Name() != p.Name() {
			t.Fatalf("ByName(%q) = %q, which resolves to %v, %v", name, p.Name(), back.Name(), err)
		}
	})
}
