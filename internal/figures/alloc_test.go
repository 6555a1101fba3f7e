package figures

import (
	"runtime"
	"testing"
)

// Campaign allocation bounds for one serial GenerateAll. The launch path
// stores channel commands inline, completes them through a per-channel
// fence and analyzes traces on index slices; the campaign then allocates
// about 82 MB in 0.22 M objects on amd64. Boxing each command again, or a
// Signal per command, lands near 255 MB and 1.57 M objects.
const (
	maxCampaignBytes   = 110 << 20
	maxCampaignMallocs = 500_000
)

// TestCampaignAllocationBound measures runtime.MemStats around
// GenerateAll(1), which is serial and so allocates the same on every run,
// and bounds the bytes and objects the whole figure campaign allocates. It
// runs without -race from make alloc-bound; the race detector inflates
// allocation.
func TestCampaignAllocationBound(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound does not hold under the race detector")
	}
	if testing.Short() {
		t.Skip("full figure set in -short mode")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tables, err := GenerateAll(1)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != len(IDs()) {
		t.Fatalf("generated %d tables, want %d", len(tables), len(IDs()))
	}
	bytes := after.TotalAlloc - before.TotalAlloc
	mallocs := after.Mallocs - before.Mallocs
	t.Logf("GenerateAll(1): %.1f MB in %d objects", float64(bytes)/(1<<20), mallocs)
	if bytes > maxCampaignBytes {
		t.Errorf("campaign allocated %d B, bound %d", bytes, maxCampaignBytes)
	}
	if mallocs > maxCampaignMallocs {
		t.Errorf("campaign allocated %d objects, bound %d", mallocs, maxCampaignMallocs)
	}
}
