package obs

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"

	"hccsim/internal/sim"
)

// FuzzChromeTrace drives a fuzzed stream of span, async-span, counter,
// gauge and histogram operations on an observer bound to a fresh engine,
// with fuzzed names, then checks the Chrome-trace export: it is valid
// JSON, every async "b" has an "e" with the same scope and id, and no
// "dur" is negative. A non-finite gauge value must panic in Set and leave
// the export valid.
//
// Each op is one byte (low three bits select the operation, the rest are
// its argument); a gauge set reads its value from the next eight bytes.
func FuzzChromeTrace(f *testing.F) {
	nan := binary.LittleEndian.AppendUint64([]byte{6}, math.Float64bits(math.NaN()))
	inf := binary.LittleEndian.AppendUint64([]byte{6}, math.Float64bits(math.Inf(-1)))
	gauge := binary.LittleEndian.AppendUint64([]byte{6}, math.Float64bits(2.5))
	f.Add([]byte{1, 0x28, 1, 2, 0x20, 3, 0x48, 2}, "layer")
	f.Add([]byte{3, 11, 0x18, 3, 0x48, 4, 0x10, 4, 5, 0xf7}, "request")
	f.Add(append(append([]byte{1}, gauge...), 0x30, 2, 7), "q\"uote\\\x00\x7f\xff")
	f.Add(nan, "gauge")
	f.Add(inf, "gauge")
	f.Fuzz(func(t *testing.T, ops []byte, name string) {
		eng := sim.NewEngine()
		o := New()
		o.Bind(eng)
		eng.Spawn("ops", func(p *sim.Proc) { drive(t, o, p, ops, name) })
		eng.Run()
		checkChromeTrace(t, o.ChromeTrace())
	})
}

// drive interprets ops against o, advancing p's clock between them.
func drive(t *testing.T, o *Observer, p *sim.Proc, ops []byte, name string) {
	tracks := []Track{o.Track(name), o.Track(name + "/1"), o.Track("layer")}
	reg := o.Metrics()
	counter := reg.MustCounter(name+".count", "count")
	gauge := reg.MustGauge(name+".gauge", "bytes")
	hist := reg.MustHistogram(name+".hist", "ns")
	var open []Span
	var asyncs []AsyncSpan
	for i := 0; i < len(ops); i++ {
		op, arg := ops[i]&7, int(ops[i]>>3)
		switch op {
		case 0:
			p.Sleep(sim.Duration(arg) * 1000)
		case 1:
			sp := tracks[arg%len(tracks)].Begin(name).Bytes(int64(arg)).Count(int64(arg) - 8)
			if arg&1 == 1 {
				sp = sp.Mode(name).Request(int64(arg) - 16)
			}
			open = append(open, sp)
		case 2:
			if len(open) > 0 {
				k := arg % len(open)
				open[k].End()
				open = append(open[:k], open[k+1:]...)
			}
		case 3:
			scope := "request"
			if arg&1 == 1 {
				scope = name
			}
			asyncs = append(asyncs, o.BeginAsync(scope, int64(arg>>1)-8, name))
		case 4:
			if len(asyncs) > 0 {
				k := arg % len(asyncs)
				asyncs[k].End()
				asyncs = append(asyncs[:k], asyncs[k+1:]...)
			}
		case 5:
			counter.Add(int64(int8(ops[i])))
		case 6:
			var buf [8]byte
			i += copy(buf[:], ops[i+1:])
			v := math.Float64frombits(binary.LittleEndian.Uint64(buf[:]))
			finite := !math.IsNaN(v) && !math.IsInf(v, 0)
			if panicked := setPanics(gauge, v); panicked == finite {
				t.Errorf("Gauge.Set(%v): panicked = %v", v, panicked)
			}
		case 7:
			hist.Observe(int64(int8(ops[i])) * 1000)
		}
	}
}

// setPanics reports whether g.Set(v) panicked.
func setPanics(g Gauge, v float64) (panicked bool) {
	defer func() { panicked = recover() != nil }()
	g.Set(v)
	return false
}

// checkChromeTrace asserts the export is valid JSON with balanced async
// pairs and non-negative durations.
func checkChromeTrace(t *testing.T, out []byte) {
	t.Helper()
	if !json.Valid(out) {
		t.Fatalf("ChromeTrace is not valid JSON:\n%s", out)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string   `json:"ph"`
			Cat string   `json:"cat"`
			ID  string   `json:"id"`
			Dur *float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(out, &doc); err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	type key struct{ scope, id string }
	open := map[key]int{}
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "b":
			open[key{e.Cat, e.ID}]++
		case "e":
			open[key{e.Cat, e.ID}]--
		}
		if e.Dur != nil && *e.Dur < 0 {
			t.Errorf("negative dur %v", *e.Dur)
		}
	}
	for k, n := range open {
		if n != 0 {
			t.Errorf("async scope %q id %s: %d unmatched \"b\" events", k.scope, k.id, n)
		}
	}
}
