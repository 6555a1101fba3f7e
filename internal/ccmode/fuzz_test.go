package ccmode

import "testing"

// FuzzModeByName: resolution never panics, and an accepted name's canonical
// form resolves back to itself.
func FuzzModeByName(f *testing.F) {
	for _, s := range []string{"off", " OFF ", "cc", "tdx-connect", "bridge", "tdx+pipelined", "h100", "", "off+pipelined+pipelined"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		m, err := ByName(name)
		if err != nil {
			return
		}
		if back, err := ByName(m.Name()); err != nil || back.Name() != m.Name() {
			t.Fatalf("ByName(%q) = %q, which resolves to %v, %v", name, m.Name(), back, err)
		}
	})
}
