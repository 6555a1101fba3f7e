package bench

import (
	"math"
	"path/filepath"
	"testing"
)

func metricSet() []Metric {
	return []Metric{
		{Name: "events", Value: 1000, Unit: "events/sec", Better: HigherIsBetter},
		{Name: "wall", Value: 200, Unit: "ms", Better: LowerIsBetter},
	}
}

func withValues(events, wall float64) Baseline {
	return Baseline{Schema: SchemaVersion, Date: "test", Metrics: []Metric{
		{Name: "events", Value: events, Unit: "events/sec", Better: HigherIsBetter},
		{Name: "wall", Value: wall, Unit: "ms", Better: LowerIsBetter},
	}}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := Baseline{Schema: SchemaVersion, Metrics: metricSet()}
	cur := withValues(950, 210) // -5% events, +5% wall: inside 10%
	deltas, err := Compare(base, cur, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %+v", regs)
	}
}

func TestCompareFlagsHigherIsBetterDrop(t *testing.T) {
	base := Baseline{Schema: SchemaVersion, Metrics: metricSet()}
	cur := withValues(850, 200) // -15% events
	deltas, err := Compare(base, cur, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "events" {
		t.Fatalf("want exactly one regression on events, got %+v", regs)
	}
}

func TestCompareFlagsLowerIsBetterRise(t *testing.T) {
	base := Baseline{Schema: SchemaVersion, Metrics: metricSet()}
	cur := withValues(1000, 230) // +15% wall
	deltas, err := Compare(base, cur, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].Name != "wall" {
		t.Fatalf("want exactly one regression on wall, got %+v", regs)
	}
}

func TestCompareImprovementsNeverRegress(t *testing.T) {
	base := Baseline{Schema: SchemaVersion, Metrics: metricSet()}
	cur := withValues(5000, 40) // 5x faster everywhere
	deltas, err := Compare(base, cur, DefaultTolerance)
	if err != nil {
		t.Fatal(err)
	}
	if regs := Regressions(deltas); len(regs) != 0 {
		t.Fatalf("improvements flagged as regressions: %+v", regs)
	}
}

func TestCompareNoCommonMetricsErrors(t *testing.T) {
	base := Baseline{Schema: SchemaVersion, Metrics: []Metric{{Name: "gone", Value: 1}}}
	cur := Baseline{Schema: SchemaVersion, Metrics: metricSet()}
	if _, err := Compare(base, cur, DefaultTolerance); err == nil {
		t.Fatal("want error for disjoint metric sets")
	}
}

// TestCompareRejectsBadTolerance: a NaN tolerance would pass every metric
// (no change exceeds NaN) and a negative one would flag noise, whether it
// comes from the caller or from a baseline metric's own Tol.
func TestCompareRejectsBadTolerance(t *testing.T) {
	cases := []struct {
		name      string
		tol, mtol float64
	}{
		{"tol NaN", math.NaN(), 0},
		{"tol +Inf", math.Inf(1), 0},
		{"tol -Inf", math.Inf(-1), 0},
		{"tol negative", -0.1, 0},
		{"metric tol NaN", DefaultTolerance, math.NaN()},
		{"metric tol +Inf", DefaultTolerance, math.Inf(1)},
		{"metric tol negative", DefaultTolerance, -0.05},
	}
	for _, c := range cases {
		base := Baseline{Schema: SchemaVersion, Metrics: metricSet()}
		base.Metrics[1].Tol = c.mtol
		if _, err := Compare(base, withValues(1000, 200), c.tol); err == nil {
			t.Errorf("%s: Compare accepted tolerance", c.name)
		}
	}
	base := Baseline{Schema: SchemaVersion, Metrics: metricSet()}
	if _, err := Compare(base, withValues(1000, 200), 0); err != nil {
		t.Errorf("zero tolerance rejected: %v", err)
	}
}

func TestBaselineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	want := Baseline{
		Schema: SchemaVersion, Date: "2026-08-06", GoVersion: "go-test",
		GOMAXPROCS: 4, Metrics: metricSet(),
		Counters: map[string]uint64{"events_fired": 42},
	}
	if err := WriteFile(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Date != want.Date || len(got.Metrics) != 2 || got.Counters["events_fired"] != 42 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestReadFileRejectsWrongSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteFile(path, Baseline{Schema: SchemaVersion + 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("want schema-mismatch error")
	}
}
