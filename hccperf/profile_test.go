package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"testing"
)

// TestFoldSyntheticProfile folds a hand-built profile whose stacks cover
// every classification rule and checks each bucket and the 100% total.
func TestFoldSyntheticProfile(t *testing.T) {
	strs := []string{"", "samples", "cpu"}
	str := func(s string) int64 {
		for i, x := range strs {
			if x == s {
				return int64(i)
			}
		}
		strs = append(strs, s)
		return int64(len(strs) - 1)
	}
	p := &profile{locLines: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	p.sampleTypes = []int64{str("samples"), str("cpu")}
	fnID := map[string]uint64{}
	// loc registers one location holding fns, innermost (inlined) first.
	nextLoc := uint64(0)
	loc := func(fns ...string) uint64 {
		nextLoc++
		var ids []uint64
		for _, f := range fns {
			id, ok := fnID[f]
			if !ok {
				id = uint64(len(fnID) + 1)
				fnID[f] = id
				p.funcNames[id] = str(f)
			}
			ids = append(ids, id)
		}
		p.locLines[nextLoc] = ids
		return nextLoc
	}
	sample := func(ns int64, locs ...uint64) {
		p.samples = append(p.samples, profSample{locs: locs, values: []int64{1, ns}})
	}

	main := loc("main.main", "runtime.main")
	// Innermost layer frame wins; helper packages fall through to it.
	sample(10e6, loc("hccsim/internal/units.ToMS"), loc("hccsim/internal/trace.(*Tracer).Analyze"), loc("hccsim/internal/core.Decompose"), main)
	// A subpackage belongs to its layer; runtime work under a layer is the layer's.
	sample(20e6, loc("runtime.chansend"), loc("hccsim/internal/sim/eventq.(*Queue).Push"), loc("hccsim/internal/cuda.(*Context).Launch"), main)
	// An inlined layer frame inside a runtime location counts too.
	sample(5e6, loc("hccsim/internal/hbm.(*SlotAllocator).Alloc", "runtime.mallocgc"), main)
	// GC work, even an assist under a layer, is runtime-gc.
	sample(7e6, loc("runtime.gcAssistAlloc"), loc("runtime.mallocgc"), loc("hccsim/internal/serve.schedule"), main)
	sample(3e6, loc("runtime.scanobject"), loc("runtime.gcBgMarkWorker"))
	// Runtime-only stacks are the scheduler.
	sample(11e6, loc("runtime.findRunnable"), loc("runtime.schedule"), loc("runtime.park_m"), loc("runtime.mcall"))
	sample(1e6)
	// Everything else is other.
	sample(4e6, loc("crypto/sha256.block"), main)

	p.strs = strs
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(encodeProfile(p))
	zw.Close()
	got, err := foldProfile(&gz)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"trace": 0.010, "sim": 0.020, "hbm": 0.005,
		bucketGC: 0.010, bucketSched: 0.012, bucketOther: 0.004,
	}
	var total, folded float64
	for _, s := range p.samples {
		total += float64(s.values[1]) / 1e9
	}
	for k, v := range got {
		folded += v
		if math.Abs(v-want[k]) > 1e-12 {
			t.Errorf("bucket %s = %v s, want %v s", k, v, want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			t.Errorf("bucket %s missing", k)
		}
	}
	if math.Abs(folded-total) > 1e-12 {
		t.Errorf("folded %v s of %v s sampled; the buckets must cover every sample", folded, total)
	}
}

func TestFoldRejectsGarbage(t *testing.T) {
	if _, err := foldProfile(bytes.NewReader([]byte("not a profile"))); err == nil {
		t.Error("foldProfile accepted a non-gzip input")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write([]byte{0x12, 0x7f, 0x01}) // sample field claiming 127 bytes
	zw.Close()
	if _, err := foldProfile(&gz); err == nil {
		t.Error("foldProfile accepted a truncated message")
	}
}

// encodeProfile is decodeProfile's inverse for the fields the fold reads;
// the tests build synthetic profiles with it.
func encodeProfile(p *profile) []byte {
	var out bytes.Buffer
	field := func(buf *bytes.Buffer, num int, payload []byte) {
		putVarint(buf, uint64(num)<<3|2)
		putVarint(buf, uint64(len(payload)))
		buf.Write(payload)
	}
	varintField := func(buf *bytes.Buffer, num int, v uint64) {
		putVarint(buf, uint64(num)<<3)
		putVarint(buf, v)
	}
	for _, t := range p.sampleTypes {
		var m bytes.Buffer
		varintField(&m, 1, uint64(t))
		field(&out, 1, m.Bytes())
	}
	for _, s := range p.samples {
		var m, locs, vals bytes.Buffer
		for _, l := range s.locs {
			putVarint(&locs, l)
		}
		for _, v := range s.values {
			putVarint(&vals, uint64(v))
		}
		field(&m, 1, locs.Bytes())
		field(&m, 2, vals.Bytes())
		field(&out, 2, m.Bytes())
	}
	for id, fns := range p.locLines {
		var m bytes.Buffer
		varintField(&m, 1, id)
		for _, f := range fns {
			var line bytes.Buffer
			varintField(&line, 1, f)
			field(&m, 4, line.Bytes())
		}
		field(&out, 4, m.Bytes())
	}
	for id, name := range p.funcNames {
		var m bytes.Buffer
		varintField(&m, 1, id)
		varintField(&m, 2, uint64(name))
		field(&out, 5, m.Bytes())
	}
	for _, s := range p.strs {
		field(&out, 6, []byte(s))
	}
	return out.Bytes()
}

func putVarint(buf *bytes.Buffer, v uint64) {
	for v >= 0x80 {
		buf.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	buf.WriteByte(byte(v))
}
