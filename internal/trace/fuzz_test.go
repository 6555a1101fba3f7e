package trace

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"hccsim/internal/sim"
)

// FuzzAnalyze decodes bytes into a trace — any kinds, starts and
// durations, and seqs that are zero, fresh, duplicated, negative, above the
// counter or far above it — and checks Analyze field by field against
// refAnalyze, the map-based implementation it replaced.
//
// Each event is five bytes: kind (low bits; the high bit marks it managed),
// start, duration, seq mode and the mode's argument.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{
		5, 0, 2, 1, 0, // launch [0,2]
		6, 5, 3, 2, 0, // its kernel
		5, 4, 1, 1, 0, // second launch
		2, 2, 1, 0, 0, // H2D copy inside the gap
		6, 9, 4, 2, 1, // its kernel
	})
	f.Add([]byte{5, 0, 1, 1, 0, 5, 10, 2, 2, 0, 6, 20, 1, 2, 0}) // duplicated launch seq: the later launch wins
	f.Add([]byte{5, 10, 1, 1, 0, 5, 10, 2, 1, 0, 6, 20, 1, 2, 0, 6, 20, 1, 2, 1, 7, 3, 9, 0, 0})
	f.Add([]byte{5, 1, 1, 3, 4, 6, 7, 1, 3, 4, 5, 3, 1, 4, 2, 6, 9, 1, 4, 2, 5, 5, 1, 5, 0, 6, 8, 1, 5, 0})
	f.Add([]byte{0x84, 0, 200, 0, 0, 0x83, 3, 5, 0, 0, 9, 1, 1, 0, 0, 8, 2, 2, 0, 0, 1, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := New()
		var seqs []int
		for ; len(data) >= 5; data = data[5:] {
			start := int64(data[1])
			dur := int64(data[2] % 64)
			if data[2] >= 192 {
				dur = int64(data[2]) * 1000
			}
			e := Event{
				Kind: Kind(data[0] & 0x7f % 10), Managed: data[0]&0x80 != 0,
				Start: sim.Time(start), End: sim.Time(start + dur),
			}
			arg := int(data[4])
			switch data[3] % 6 {
			case 1:
				e.Seq = tr.NextSeq()
			case 2:
				if len(seqs) > 0 {
					e.Seq = seqs[arg%len(seqs)]
				}
			case 3:
				e.Seq = -arg - 1
			case 4:
				e.Seq = tr.seq + len(tr.events) + arg + 1
			case 5:
				e.Seq = 1<<40 + arg
			}
			seqs = append(seqs, tr.Record(e))
		}
		got, want := tr.Analyze(), refAnalyze(tr.Events())
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Analyze differs from the reference\n got %+v\nwant %+v", got, want)
		}
	})
}

// refAnalyze is the map-based Analyze over copied events that the index
// version replaced, kept as the fuzz oracle.
func refAnalyze(events []Event) Metrics {
	var m Metrics
	var launches, kernels []Event
	busy := make([]Event, 0, len(events))
	for _, e := range events {
		switch e.Kind {
		case KindLaunch:
			m.KLO += e.Duration()
			m.KLOs = append(m.KLOs, e.Duration())
			m.Launches++
			launches = append(launches, e)
			busy = append(busy, e)
		case KindKernel:
			m.KET += e.Duration()
			m.KETs = append(m.KETs, e.Duration())
			m.Kernels++
			kernels = append(kernels, e)
		case KindMemcpyH2D:
			m.CopyH2D += e.Duration()
			busy = append(busy, e)
		case KindMemcpyD2H:
			m.CopyD2H += e.Duration()
			busy = append(busy, e)
		case KindMemcpyD2D:
			m.CopyD2D += e.Duration()
			busy = append(busy, e)
		case KindAlloc:
			m.AllocTime += e.Duration()
			busy = append(busy, e)
		case KindFree:
			m.FreeTime += e.Duration()
			busy = append(busy, e)
		case KindSync:
			m.SyncTime += e.Duration()
			busy = append(busy, e)
		}
		if e.Kind == KindMemcpyH2D || e.Kind == KindMemcpyD2H || e.Kind == KindMemcpyD2D {
			if e.Managed {
				m.ManagedCopy += e.Duration()
			}
		}
	}
	sort.Slice(launches, func(i, j int) bool { return launches[i].Start < launches[j].Start })
	sort.Slice(busy, func(i, j int) bool { return busy[i].Start < busy[j].Start })
	for i := 1; i < len(launches); i++ {
		gapStart, gapEnd := launches[i-1].End, launches[i].Start
		if gapEnd <= gapStart {
			continue
		}
		covered := refOverlapWith(busy, gapStart, gapEnd, launches[i].Seq, launches[i-1].Seq)
		if gap := gapEnd.Sub(gapStart) - covered; gap > 0 {
			m.LQT += gap
		}
	}
	launchBySeq := make(map[int]Event, len(launches))
	for _, l := range launches {
		launchBySeq[l.Seq] = l
	}
	for _, k := range kernels {
		if l, ok := launchBySeq[k.Seq]; ok {
			if q := k.Start.Sub(l.End); q > 0 {
				m.KQT += q
			}
		}
	}
	return m
}

func refOverlapWith(busy []Event, start, end sim.Time, skipA, skipB int) time.Duration {
	var covered time.Duration
	cursor := start
	for _, e := range busy {
		if e.Start >= end {
			break
		}
		if e.Seq == skipA || e.Seq == skipB || e.End <= cursor {
			continue
		}
		s, f := max(e.Start, cursor), min(e.End, end)
		if f > s {
			covered += f.Sub(s)
			cursor = f
		}
	}
	return covered
}
