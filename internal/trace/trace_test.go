package trace

import (
	"bytes"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"hccsim/internal/sim"
)

func ev(k Kind, start, end int64, seq int) Event {
	return Event{Kind: k, Start: sim.Time(start), End: sim.Time(end), Seq: seq}
}

func TestRecordAssignsSeq(t *testing.T) {
	tr := New()
	s1 := tr.Record(Event{Kind: KindAlloc, End: 1})
	s2 := tr.Record(Event{Kind: KindAlloc, End: 1})
	if s1 == s2 || s1 == 0 {
		t.Fatalf("seq not unique: %d %d", s1, s2)
	}
	if len(tr.Events()) != 2 {
		t.Fatalf("events = %d", len(tr.Events()))
	}
}

// TestNilTracerRecordsNothingButValidates pins the opt-in contract: a nil
// recorder stores nothing, hands back the caller's correlation id, and
// still panics on an event that ends before it starts.
func TestNilTracerRecordsNothingButValidates(t *testing.T) {
	var tr *Tracer
	if got := tr.NextSeq(); got != 0 {
		t.Fatalf("nil NextSeq = %d, want 0", got)
	}
	if got := tr.Record(Event{Kind: KindKernel, Start: 1, End: 2, Seq: 7}); got != 7 {
		t.Fatalf("nil Record returned seq %d, want the event's 7", got)
	}
	if got := tr.Record(Event{Kind: KindAlloc, End: 1}); got != 0 {
		t.Fatalf("nil Record returned seq %d for an unnumbered event, want 0", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("nil tracer accepted an event with end < start")
		}
	}()
	tr.Record(Event{Kind: KindKernel, Start: 10, End: 5})
}

func TestRecordRejectsInvertedEvent(t *testing.T) {
	tr := New()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for end < start")
		}
	}()
	tr.Record(Event{Kind: KindKernel, Start: 10, End: 5})
}

func TestAnalyzeKLOKETKQT(t *testing.T) {
	tr := New()
	// Launch 1: [0,10], kernel 1: [15,45] -> KQT 5, KET 30.
	s1 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 0, 10, s1))
	tr.Record(ev(KindKernel, 15, 45, s1))
	// Launch 2: [20,28] -> LQT = 20-10 = 10; kernel 2: [45,50] -> KQT 17.
	s2 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 20, 28, s2))
	tr.Record(ev(KindKernel, 45, 50, s2))

	m := tr.Analyze()
	if m.KLO != 18 {
		t.Fatalf("KLO = %v, want 18ns", m.KLO)
	}
	if m.KET != 35 {
		t.Fatalf("KET = %v, want 35ns", m.KET)
	}
	if m.KQT != 5+17 {
		t.Fatalf("KQT = %v, want 22ns", m.KQT)
	}
	if m.LQT != 10 {
		t.Fatalf("LQT = %v, want 10ns", m.LQT)
	}
	if m.Launches != 2 || m.Kernels != 2 {
		t.Fatalf("counts: %d launches %d kernels", m.Launches, m.Kernels)
	}
}

func TestLQTExcludesCoveredGaps(t *testing.T) {
	tr := New()
	s1 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 0, 10, s1))
	// A memcpy covers [10, 30] of the gap.
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 10, End: 30, Bytes: 100})
	s2 := tr.NextSeq()
	tr.Record(ev(KindLaunch, 40, 45, s2))
	m := tr.Analyze()
	// Gap is [10,40] = 30, of which 20 covered by the copy -> LQT 10.
	if m.LQT != 10 {
		t.Fatalf("LQT = %v, want 10ns", m.LQT)
	}
}

func TestCopyAllocAggregation(t *testing.T) {
	tr := New()
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 0, End: 5, Bytes: 10})
	tr.Record(Event{Kind: KindMemcpyD2H, Start: 5, End: 15, Bytes: 10})
	tr.Record(Event{Kind: KindMemcpyD2D, Start: 15, End: 18, Bytes: 10, Managed: true})
	tr.Record(Event{Kind: KindAlloc, Start: 20, End: 30})
	tr.Record(Event{Kind: KindFree, Start: 30, End: 50})
	tr.Record(Event{Kind: KindSync, Start: 50, End: 51})
	m := tr.Analyze()
	if m.CopyH2D != 5 || m.CopyD2H != 10 || m.CopyD2D != 3 {
		t.Fatalf("copy times %v/%v/%v", m.CopyH2D, m.CopyD2H, m.CopyD2D)
	}
	if m.ManagedCopy != 3 {
		t.Fatalf("managed copy %v, want 3", m.ManagedCopy)
	}
	if m.AllocTime != 10 || m.FreeTime != 20 || m.SyncTime != 1 {
		t.Fatalf("alloc/free/sync %v/%v/%v", m.AllocTime, m.FreeTime, m.SyncTime)
	}
}

func TestCDFShapeAndTrim(t *testing.T) {
	samples := []time.Duration{5, 1, 3, 2, 4}
	xs, ps := CDF(samples, 0)
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] || ps[i] <= ps[i-1] {
			t.Fatalf("CDF not monotone at %d", i)
		}
	}
	if ps[len(ps)-1] != 1.0 {
		t.Fatalf("final p = %f", ps[len(ps)-1])
	}
	xs2, _ := CDF(samples, 2)
	if len(xs2) != 3 || xs2[len(xs2)-1] != 3 {
		t.Fatalf("trim failed: %v", xs2)
	}
	if xs3, ps3 := CDF(nil, 0); xs3 != nil || ps3 != nil {
		t.Fatal("empty CDF should be nil")
	}
}

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("mean of empty != 0")
	}
	if m := Mean([]time.Duration{10, 20, 30}); m != 20 {
		t.Fatalf("mean = %v", m)
	}
}

func TestSpan(t *testing.T) {
	tr := New()
	if tr.Span() != 0 {
		t.Fatal("empty span != 0")
	}
	tr.Record(ev(KindKernel, 10, 20, 1))
	tr.Record(ev(KindKernel, 5, 12, 2))
	if tr.Span() != 15 {
		t.Fatalf("span = %v, want 15ns", tr.Span())
	}
}

func TestOfKind(t *testing.T) {
	tr := New()
	tr.Record(ev(KindKernel, 0, 1, 1))
	tr.Record(ev(KindLaunch, 0, 1, 2))
	tr.Record(ev(KindKernel, 1, 2, 3))
	if got := len(tr.OfKind(KindKernel)); got != 2 {
		t.Fatalf("OfKind(Kernel) = %d", got)
	}
}

// Property: all analyzer outputs are non-negative and KET equals the sum of
// kernel durations for arbitrary well-formed traces.
func TestPropertyAnalyzeNonNegative(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := New()
		var wantKET time.Duration
		cursor := int64(0)
		for i := 0; i < int(n%40)+1; i++ {
			seq := tr.NextSeq()
			lStart := cursor + int64(rng.Intn(100))
			lEnd := lStart + int64(rng.Intn(50))
			tr.Record(ev(KindLaunch, lStart, lEnd, seq))
			kStart := lEnd + int64(rng.Intn(100))
			kEnd := kStart + int64(rng.Intn(1000))
			tr.Record(ev(KindKernel, kStart, kEnd, seq))
			wantKET += time.Duration(kEnd - kStart)
			cursor = lEnd
		}
		m := tr.Analyze()
		return m.KET == wantKET && m.KLO >= 0 && m.LQT >= 0 && m.KQT >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: CDF is a valid distribution function for any sample set.
func TestPropertyCDFValid(t *testing.T) {
	f := func(raw []uint16) bool {
		samples := make([]time.Duration, len(raw))
		for i, r := range raw {
			samples[i] = time.Duration(r)
		}
		xs, ps := CDF(samples, 0)
		if len(xs) != len(samples) || len(ps) != len(xs) {
			return len(samples) == 0
		}
		for i := range xs {
			if i > 0 && xs[i] < xs[i-1] {
				return false
			}
			if ps[i] <= 0 || ps[i] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := New()
	seq := tr.NextSeq()
	tr.Record(Event{Kind: KindLaunch, Name: "k", Stream: 1, Start: 10, End: 20, Seq: seq})
	tr.Record(Event{Kind: KindKernel, Name: "k", Stream: 1, Start: 25, End: 125, Seq: seq})
	tr.Record(Event{Kind: KindMemcpyH2D, Name: "cudaMemcpy", Stream: -1, Start: 0, End: 8, Bytes: 4096, Managed: true})

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events()) != len(tr.Events()) {
		t.Fatalf("round trip lost events: %d vs %d", len(back.Events()), len(tr.Events()))
	}
	m1 := tr.Analyze()
	m2 := back.Analyze()
	if m1.KLO != m2.KLO || m1.KET != m2.KET || m1.KQT != m2.KQT || m1.CopyH2D != m2.CopyH2D {
		t.Fatalf("analysis differs after round trip:\n%+v\n%+v", m1, m2)
	}
	// Managed flags and bytes survive.
	if e := back.Events()[2]; !e.Managed || e.Bytes != 4096 {
		t.Fatalf("copy event lost attributes: %+v", e)
	}
}

func TestReadJSONRejectsGarbage(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("expected decode error")
	}
	if _, err := ReadJSON(strings.NewReader(`{"events":[{"kind":"Nope"}]}`)); err == nil {
		t.Fatal("expected unknown-kind error")
	}
}

func TestGanttRendering(t *testing.T) {
	tr := New()
	seq := tr.NextSeq()
	tr.Record(Event{Kind: KindAlloc, Start: 0, End: 100})
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 100, End: 400, Bytes: 1})
	tr.Record(Event{Kind: KindLaunch, Start: 400, End: 420, Seq: seq})
	tr.Record(Event{Kind: KindKernel, Start: 430, End: 900, Seq: seq})
	tr.Record(Event{Kind: KindFree, Start: 900, End: 1000})

	var buf bytes.Buffer
	if err := tr.Gantt(&buf, 50); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, lane := range []string{"alloc", "copy", "launch", "kernel", "free"} {
		if !strings.Contains(out, lane) {
			t.Fatalf("gantt missing %q lane:\n%s", lane, out)
		}
	}
	if strings.Contains(out, "fault") {
		t.Fatal("gantt shows unused fault lane")
	}
	// The kernel lane's '#' glyphs sit after the copy lane's '='.
	kLine, cLine := "", ""
	for _, ln := range strings.Split(out, "\n") {
		if strings.HasPrefix(ln, "kernel") {
			kLine = ln
		}
		if strings.HasPrefix(ln, "copy") {
			cLine = ln
		}
	}
	if strings.Index(kLine, "#") <= strings.Index(cLine, "=") {
		t.Fatalf("kernel marks not after copy marks:\n%s", out)
	}
}

func TestGanttEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := New().Gantt(&buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty trace not reported")
	}
}

func TestUtilization(t *testing.T) {
	tr := New()
	tr.Record(Event{Kind: KindMemcpyH2D, Start: 0, End: 50, Bytes: 1})
	tr.Record(Event{Kind: KindMemcpyD2H, Start: 25, End: 75, Bytes: 1}) // overlaps: union 0-75
	tr.Record(Event{Kind: KindKernel, Start: 50, End: 100})
	u := tr.Utilize()
	if u.Copy < 0.74 || u.Copy > 0.76 {
		t.Fatalf("copy utilization %.2f, want 0.75", u.Copy)
	}
	if u.Kernel != 0.5 {
		t.Fatalf("kernel utilization %.2f, want 0.50", u.Kernel)
	}
	if u.Fault != 0 || u.Mgmt != 0 {
		t.Fatalf("phantom utilization: %+v", u)
	}
	if (New()).Utilize() != (Utilization{}) {
		t.Fatal("empty trace utilization not zero")
	}
}

// overlapWithQuadratic is the reference launch-gap coverage: it rescans
// every busy event for every gap, O(launches × busy).
func overlapWithQuadratic(busy []Event, start, end sim.Time, skipA, skipB int) time.Duration {
	var covered time.Duration
	cursor := start
	for _, e := range busy {
		if e.Seq == skipA || e.Seq == skipB {
			continue
		}
		if e.End <= cursor || e.Start >= end {
			continue
		}
		s := e.Start
		if s < cursor {
			s = cursor
		}
		f := e.End
		if f > end {
			f = end
		}
		if f > s {
			covered += f.Sub(s)
			cursor = f
		}
	}
	return covered
}

// lqtQuadratic is the reference LQT: Analyze's gap loop over the full busy
// list with the quadratic coverage scan.
func lqtQuadratic(events []Event) time.Duration {
	var launches, busy []Event
	for _, e := range events {
		switch e.Kind {
		case KindLaunch:
			launches = append(launches, e)
			busy = append(busy, e)
		case KindMemcpyH2D, KindMemcpyD2H, KindMemcpyD2D, KindAlloc, KindFree, KindSync:
			busy = append(busy, e)
		}
	}
	sort.Slice(launches, func(i, j int) bool { return launches[i].Start < launches[j].Start })
	sort.Slice(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	var lqt time.Duration
	for i := 1; i < len(launches); i++ {
		gapStart, gapEnd := launches[i-1].End, launches[i].Start
		if gapEnd <= gapStart {
			continue
		}
		if gap := gapEnd.Sub(gapStart) - overlapWithQuadratic(busy, gapStart, gapEnd, launches[i].Seq, launches[i-1].Seq); gap > 0 {
			lqt += gap
		}
	}
	return lqt
}

// randomHostTrace records n events of mixed kinds on a coarse time grid, so
// the trace has overlapping launches, equal starts, zero-length events, and
// busy events long enough to span several launch gaps.
func randomHostTrace(rng *rand.Rand, n int) *Tracer {
	kinds := []Kind{KindLaunch, KindLaunch, KindLaunch, KindMemcpyH2D, KindMemcpyD2H,
		KindMemcpyD2D, KindAlloc, KindFree, KindSync, KindKernel}
	tr := New()
	for i := 0; i < n; i++ {
		start := int64(rng.Intn(4*n)) * 5
		var dur int64
		switch rng.Intn(4) {
		case 0: // zero-length
		case 1:
			dur = int64(rng.Intn(20*n)) * 5 // spans many gaps
		default:
			dur = int64(rng.Intn(8)) * 5
		}
		tr.Record(Event{Kind: kinds[rng.Intn(len(kinds))], Start: sim.Time(start), End: sim.Time(start + dur)})
	}
	return tr
}

// Property: the indexed launch-gap scan gives the reference LQT exactly.
func TestPropertyLQTMatchesQuadratic(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := randomHostTrace(rng, int(n%60)+1)
		got, want := tr.Analyze().LQT, lqtQuadratic(tr.Events())
		if got != want {
			t.Logf("seed %d, %d events: LQT = %v, reference %v", seed, len(tr.Events()), got, want)
		}
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkAnalyze decomposes a 10k-launch trace shaped like a CUDA host
// thread: each launch is followed by its kernel, with an occasional copy
// or sync in the gap before the next launch.
func BenchmarkAnalyze(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := New()
	var now int64
	for i := 0; i < 10000; i++ {
		seq := tr.NextSeq()
		lEnd := now + 2000 + int64(rng.Intn(500))
		tr.Record(ev(KindLaunch, now, lEnd, seq))
		tr.Record(ev(KindKernel, lEnd+100, lEnd+100+int64(rng.Intn(20000)), seq))
		now = lEnd + int64(rng.Intn(1000))
		if rng.Intn(4) == 0 {
			k := []Kind{KindMemcpyH2D, KindMemcpyD2H, KindSync}[rng.Intn(3)]
			end := now + int64(rng.Intn(5000))
			tr.Record(ev(k, now, end, 0))
			now = end + int64(rng.Intn(300))
		}
	}
	b.ReportAllocs()
	for b.Loop() {
		tr.Analyze()
	}
}
