package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The CPU profile is the gzipped protobuf that runtime/pprof writes
// (github.com/google/pprof/proto/profile.proto). The module has no
// dependencies, so this file decodes the few fields the fold needs:
// samples, locations (with inlined lines), functions and the string table.

// foldProfile reads a CPU profile and returns the CPU seconds per bucket
// (see classify). The buckets always sum to every sample in the profile.
func foldProfile(r io.Reader) (map[string]float64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	return p.fold(), nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []profSample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcNames   map[uint64]int64    // function id -> string-table index
	strs        []string
}

// fold sums each sample's CPU time (the "cpu" value, nanoseconds) into the
// bucket of its stack.
func (p *profile) fold() map[string]float64 {
	vi := len(p.sampleTypes) - 1
	for i, t := range p.sampleTypes {
		if p.str(t) == "cpu" {
			vi = i
		}
	}
	out := make(map[string]float64)
	var frames []string
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			continue
		}
		frames = frames[:0]
		for _, l := range s.locs {
			for _, f := range p.locLines[l] {
				frames = append(frames, p.str(p.funcNames[f]))
			}
		}
		out[classify(frames)] += float64(s.values[vi]) / 1e9
	}
	return out
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strs) {
		return ""
	}
	return p.strs[i]
}

const layerPrefix = "hccsim/internal/"

// classify names the bucket of one stack, given leaf-first function names:
//
//  1. any garbage-collector frame: runtime-gc (assists charged to the
//     allocating layer would hide GC cost inside every layer);
//  2. else the innermost frame in a layer package (helpers outside the
//     layer list, such as internal/units or internal/tab, fall through to
//     the layer that called them);
//  3. else a stack made only of runtime frames — the scheduler finding,
//     parking and switching goroutines: runtime-sched;
//  4. else other (the benchmark itself and standard-library work it
//     calls directly).
func classify(frames []string) string {
	for _, f := range frames {
		if isGCFrame(f) {
			return bucketGC
		}
	}
	for _, f := range frames {
		if l := layerOf(f); l != "" {
			return l
		}
	}
	if len(frames) == 0 {
		return bucketSched
	}
	for _, f := range frames {
		if !strings.HasPrefix(f, "runtime.") && !strings.HasPrefix(f, "internal/runtime/") && !strings.HasPrefix(f, "runtime/internal/") {
			return bucketOther
		}
	}
	return bucketSched
}

// layerOf returns the layer a function belongs to, or "".
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, layerPrefix)
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return ""
}

var gcPrefixes = []string{
	"runtime.gc", "runtime.(*gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.markroot", "runtime.scan", "runtime.greyobject", "runtime.sweepone",
	"runtime.(*sweepLocked)", "runtime.(*mspan).sweep", "runtime.wbBufFlush",
	"runtime._GC",
}

func isGCFrame(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// Protobuf wire decoding.

type pbReader struct {
	b []byte
}

var errTruncated = errors.New("profile: truncated protobuf")

func (r *pbReader) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			return 0, errTruncated
		}
		c := r.b[0]
		r.b = r.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflow")
}

// next reads one field header and, for length-delimited fields, the
// payload; fixed-width fields are skipped and reported with a nil payload.
func (r *pbReader) next() (field int, wire int, v uint64, payload []byte, err error) {
	key, err := r.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	field, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = r.varint()
	case 1:
		if len(r.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[8:]
	case 2:
		var n uint64
		if n, err = r.varint(); err == nil {
			if n > uint64(len(r.b)) {
				return 0, 0, 0, nil, errTruncated
			}
			payload, r.b = r.b[:n], r.b[n:]
		}
	case 5:
		if len(r.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		r.b = r.b[4:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return field, wire, v, payload, err
}

// uints appends a repeated integer field that may be packed (wire 2) or
// not (wire 0).
func uints(dst []uint64, wire int, v uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	r := pbReader{payload}
	for len(r.b) > 0 {
		x, err := r.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: make(map[uint64][]uint64), funcNames: make(map[uint64]int64)}
	r := pbReader{b}
	for len(r.b) > 0 {
		field, _, _, payload, err := r.next()
		if err != nil {
			return nil, err
		}
		switch field {
		case 1: // sample_type
			var t int64
			if err := decodeFields(payload, func(f, _ int, v uint64, _ []byte) error {
				if f == 1 {
					t = int64(v)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.sampleTypes = append(p.sampleTypes, t)
		case 2: // sample
			var s profSample
			var vals []uint64
			if err := decodeFields(payload, func(f, w int, v uint64, pl []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, pl)
				case 2:
					vals, err = uints(vals, w, v, pl)
				}
				return err
			}); err != nil {
				return nil, err
			}
			for _, x := range vals {
				s.values = append(s.values, int64(x))
			}
			p.samples = append(p.samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			if err := decodeFields(payload, func(f, _ int, v uint64, pl []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return decodeFields(pl, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.locLines[id] = fns
		case 5: // function
			var id uint64
			var name int64
			if err := decodeFields(payload, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return nil, err
			}
			p.funcNames[id] = name
		case 6: // string_table
			p.strs = append(p.strs, string(payload))
		}
	}
	return p, nil
}

// decodeFields calls fn for every field of a nested message.
func decodeFields(b []byte, fn func(field, wire int, v uint64, payload []byte) error) error {
	r := pbReader{b}
	for len(r.b) > 0 {
		field, wire, v, payload, err := r.next()
		if err != nil {
			return err
		}
		if err := fn(field, wire, v, payload); err != nil {
			return err
		}
	}
	return nil
}
