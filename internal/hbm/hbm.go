// Package hbm implements the GPU device-memory substrate: a first-fit
// allocator with free-list coalescing over the HBM3 address space, plus the
// bandwidth constant used by the compute engine's roofline model.
//
// The paper's threat model leaves HBM unencrypted (3D-stacked memory behind
// a silicon interposer is assumed physically immune), so unlike host DRAM
// there is no cryptographic cost here — only ordinary allocation work.
package hbm

import (
	"fmt"
	"math/bits"
	"sort"
)

// Params describes the device memory.
type Params struct {
	CapacityBytes int64
	// BandwidthGBps is aggregate HBM bandwidth (H100 NVL HBM3: ~3900 GB/s).
	BandwidthGBps float64
	// AlignBytes is the allocation granule (GPU pages are 64 KiB).
	AlignBytes int64
}

type block struct {
	off, size int64
}

// Allocator is a first-fit device-memory allocator with eager coalescing.
// It is deliberately simple but honest: allocation failure, fragmentation
// and reuse behave like a real driver heap, which the UVM eviction tests
// rely on.
type Allocator struct {
	params Params
	free   []block         // sorted by offset, mutually non-adjacent
	live   map[int64]int64 // offset -> size
	used   int64
	peak   int64
}

// NewAllocator returns an empty allocator over the whole capacity. It
// panics on non-positive capacity or alignment params.
func NewAllocator(params Params) *Allocator {
	if params.AlignBytes <= 0 || params.CapacityBytes <= 0 {
		panic("hbm: invalid params")
	}
	return &Allocator{
		params: params,
		free:   []block{{off: 0, size: params.CapacityBytes}},
		live:   make(map[int64]int64),
	}
}

// Params returns the memory configuration.
func (a *Allocator) Params() Params { return a.params }

// Used returns bytes currently allocated.
func (a *Allocator) Used() int64 { return a.used }

// Peak returns the high-water mark of allocated bytes.
func (a *Allocator) Peak() int64 { return a.peak }

// Free returns bytes currently free.
//
//hcclint:unit Bytes
func (a *Allocator) Free() int64 { return a.params.CapacityBytes - a.used }

// FragmentCount returns the number of free-list extents (1 when unfragmented).
func (a *Allocator) FragmentCount() int { return len(a.free) }

func (a *Allocator) align(n int64) int64 {
	al := a.params.AlignBytes
	return (n + al - 1) / al * al
}

// Alloc reserves size bytes (rounded up to the allocation granule) and
// returns the device offset.
func (a *Allocator) Alloc(size int64) (int64, error) {
	if size <= 0 {
		return 0, fmt.Errorf("hbm: allocation size must be positive, got %d", size)
	}
	if off, ok := a.TryAlloc(size); ok {
		return off, nil
	}
	return 0, fmt.Errorf("hbm: out of memory: need %d bytes, %d free in %d fragments",
		a.align(size), a.Free(), len(a.free))
}

// TryAlloc is Alloc without the error: ok is false when the request cannot
// be satisfied. Allocation-pressure loops (the serving scheduler's KV-cache
// accountant probes for one more block on every decode iteration) use it to
// keep the out-of-memory path free of error formatting.
func (a *Allocator) TryAlloc(size int64) (off int64, ok bool) {
	if size <= 0 {
		return 0, false
	}
	n := a.align(size)
	for i, b := range a.free {
		if b.size < n {
			continue
		}
		off := b.off
		if b.size == n {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = block{off: b.off + n, size: b.size - n}
		}
		a.live[off] = n
		a.used += n
		if a.used > a.peak {
			a.peak = a.used
		}
		return off, true
	}
	return 0, false
}

// Release frees the allocation starting at off, coalescing with neighbours.
func (a *Allocator) Release(off int64) error {
	size, ok := a.live[off]
	if !ok {
		return fmt.Errorf("hbm: release of unknown offset %#x", off)
	}
	delete(a.live, off)
	a.used -= size

	i := sort.Search(len(a.free), func(i int) bool { return a.free[i].off > off })
	a.free = append(a.free, block{})
	copy(a.free[i+1:], a.free[i:])
	a.free[i] = block{off: off, size: size}

	// Coalesce with successor, then predecessor.
	if i+1 < len(a.free) && a.free[i].off+a.free[i].size == a.free[i+1].off {
		a.free[i].size += a.free[i+1].size
		a.free = append(a.free[:i+1], a.free[i+2:]...)
	}
	if i > 0 && a.free[i-1].off+a.free[i-1].size == a.free[i].off {
		a.free[i-1].size += a.free[i].size
		a.free = append(a.free[:i], a.free[i+1:]...)
	}
	return nil
}

// SizeOf returns the rounded size of the live allocation at off.
func (a *Allocator) SizeOf(off int64) (int64, bool) {
	s, ok := a.live[off]
	return s, ok
}

// CheckInvariants verifies internal consistency: the free list is sorted,
// non-overlapping, non-adjacent, and free+used covers the capacity exactly.
// Exposed for property-based tests.
func (a *Allocator) CheckInvariants() error {
	var freeTotal int64
	for i, b := range a.free {
		if b.size <= 0 {
			return fmt.Errorf("hbm: empty free block at %d", i)
		}
		freeTotal += b.size
		if i > 0 {
			prev := a.free[i-1]
			if prev.off+prev.size > b.off {
				return fmt.Errorf("hbm: overlapping free blocks at %d", i)
			}
			if prev.off+prev.size == b.off {
				return fmt.Errorf("hbm: uncoalesced adjacent free blocks at %d", i)
			}
		}
	}
	var liveTotal int64
	for _, s := range a.live {
		liveTotal += s
	}
	if liveTotal != a.used {
		return fmt.Errorf("hbm: used=%d but live sums to %d", a.used, liveTotal)
	}
	if freeTotal+liveTotal != a.params.CapacityBytes {
		return fmt.Errorf("hbm: free(%d)+live(%d) != capacity(%d)",
			freeTotal, liveTotal, a.params.CapacityBytes)
	}
	return nil
}

// SlotAllocator is the uniform-granule specialization of Allocator: every
// allocation is exactly one granule. First-fit over same-size blocks always
// takes the lowest free granule, so a two-level free bitmap returns
// byte-identical offsets: a summary bit per bitmap word says whether the
// word has a free slot, and two trailing-zero counts find the lowest one.
// Release is two bit sets — where the general free list pays an O(n)
// sorted insert, which dominated the serving scheduler's KV churn.
// Accounting (used, peak, free) matches Allocator exactly.
type SlotAllocator struct {
	granule int64
	slots   int
	free    []uint64 // bit i%64 of free[i/64] is set while slot i is free
	summary []uint64 // bit w%64 of summary[w/64] is set while free[w] != 0
	nfree   int
	used    int64
	peak    int64
}

// NewSlotAllocator returns an allocator of slots granules, all free. It
// panics on non-positive sizes, like NewAllocator.
func NewSlotAllocator(granule int64, slots int) *SlotAllocator {
	if granule <= 0 || slots <= 0 {
		panic("hbm: invalid slot allocator params")
	}
	words := (slots + 63) / 64
	a := &SlotAllocator{granule: granule, slots: slots, nfree: slots,
		free: make([]uint64, words), summary: make([]uint64, (words+63)/64)}
	for w := range a.free {
		a.free[w] = ^uint64(0)
		a.summary[w/64] |= 1 << (w % 64)
	}
	if tail := slots % 64; tail != 0 {
		a.free[words-1] = 1<<tail - 1
	}
	return a
}

// Used returns bytes currently allocated.
func (a *SlotAllocator) Used() int64 { return a.used }

// Peak returns the high-water mark of allocated bytes.
func (a *SlotAllocator) Peak() int64 { return a.peak }

// Free returns bytes currently free.
//
//hcclint:unit Bytes
func (a *SlotAllocator) Free() int64 { return int64(a.nfree) * a.granule }

// FreeSlots returns the number of free granules.
func (a *SlotAllocator) FreeSlots() int { return a.nfree }

// TryAlloc reserves the lowest free granule; ok is false when the pool is
// exhausted.
func (a *SlotAllocator) TryAlloc() (off int64, ok bool) {
	for si, sw := range a.summary {
		if sw == 0 {
			continue
		}
		w := si*64 + bits.TrailingZeros64(sw)
		b := bits.TrailingZeros64(a.free[w])
		a.free[w] &^= 1 << b
		if a.free[w] == 0 {
			a.summary[si] &^= 1 << (w % 64)
		}
		a.nfree--
		a.used += a.granule
		if a.used > a.peak {
			a.peak = a.used
		}
		return int64(w*64+b) * a.granule, true
	}
	return 0, false
}

// Release frees the granule at off. Like Allocator.Release it returns an
// error on a double free or an offset that was never allocated.
func (a *SlotAllocator) Release(off int64) error {
	slot := off / a.granule
	if off%a.granule != 0 || slot < 0 || slot >= int64(a.slots) || a.free[slot/64]&(1<<(slot%64)) != 0 {
		return fmt.Errorf("hbm: release of unknown offset %#x", off)
	}
	w := slot / 64
	a.free[w] |= 1 << (slot % 64)
	a.summary[w/64] |= 1 << (w % 64)
	a.nfree++
	a.used -= a.granule
	return nil
}
