package hbm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func testParams() Params {
	return Params{CapacityBytes: 1 << 20, BandwidthGBps: 3900, AlignBytes: 1 << 10}
}

func TestAllocAlignsAndAccounts(t *testing.T) {
	a := NewAllocator(testParams())
	off, err := a.Alloc(100) // rounds to 1 KiB
	if err != nil {
		t.Fatal(err)
	}
	if off != 0 {
		t.Fatalf("first alloc at %d, want 0", off)
	}
	if a.Used() != 1<<10 {
		t.Fatalf("used=%d, want 1024", a.Used())
	}
	if s, ok := a.SizeOf(off); !ok || s != 1<<10 {
		t.Fatalf("SizeOf = %d,%v", s, ok)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocRejectsBadSize(t *testing.T) {
	a := NewAllocator(testParams())
	if _, err := a.Alloc(0); err == nil {
		t.Fatal("expected error for zero size")
	}
	if _, err := a.Alloc(-5); err == nil {
		t.Fatal("expected error for negative size")
	}
}

func TestOutOfMemory(t *testing.T) {
	a := NewAllocator(testParams())
	if _, err := a.Alloc(2 << 20); err == nil {
		t.Fatal("expected OOM")
	}
	// Fill exactly, then one more byte fails.
	if _, err := a.Alloc(1 << 20); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Alloc(1); err == nil {
		t.Fatal("expected OOM when full")
	}
}

func TestReleaseUnknownOffset(t *testing.T) {
	a := NewAllocator(testParams())
	if err := a.Release(12345); err == nil {
		t.Fatal("expected error releasing unknown offset")
	}
}

func TestCoalescingRestoresFullExtent(t *testing.T) {
	a := NewAllocator(testParams())
	var offs []int64
	for i := 0; i < 4; i++ {
		off, err := a.Alloc(1 << 10)
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	// Free out of order: middle, ends, middle.
	for _, i := range []int{2, 0, 3, 1} {
		if err := a.Release(offs[i]); err != nil {
			t.Fatal(err)
		}
		if err := a.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if a.FragmentCount() != 1 {
		t.Fatalf("free list has %d fragments after full release, want 1", a.FragmentCount())
	}
	if a.Used() != 0 {
		t.Fatalf("used=%d after full release", a.Used())
	}
}

func TestFragmentationThenReuse(t *testing.T) {
	a := NewAllocator(testParams())
	var offs []int64
	for i := 0; i < 8; i++ {
		off, _ := a.Alloc(64 << 10) // 8 x 64KiB fills 512KiB
		offs = append(offs, off)
	}
	// Free every other block: four 64KiB holes.
	for i := 0; i < 8; i += 2 {
		_ = a.Release(offs[i])
	}
	if a.FragmentCount() < 4 {
		t.Fatalf("expected >=4 fragments, got %d", a.FragmentCount())
	}
	// A 128KiB request cannot fit a 64KiB hole; it must come from the tail.
	off, err := a.Alloc(128 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if off < 512<<10 {
		t.Fatalf("128KiB landed in a 64KiB hole at %d", off)
	}
	// A 64KiB request reuses the first hole (first fit).
	off2, err := a.Alloc(64 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if off2 != offs[0] {
		t.Fatalf("first-fit violated: got %d, want %d", off2, offs[0])
	}
}

func TestPeakTracksHighWater(t *testing.T) {
	a := NewAllocator(testParams())
	o1, _ := a.Alloc(100 << 10)
	o2, _ := a.Alloc(200 << 10)
	_ = a.Release(o1)
	_ = a.Release(o2)
	if a.Peak() != 300<<10 {
		t.Fatalf("peak=%d, want %d", a.Peak(), 300<<10)
	}
}

// Property: any interleaving of allocs and frees preserves the allocator
// invariants, and a full teardown returns to one free extent.
func TestPropertyAllocatorInvariants(t *testing.T) {
	f := func(seed int64, ops uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(testParams())
		var live []int64
		for i := 0; i < int(ops)+10; i++ {
			if len(live) > 0 && rng.Intn(2) == 0 {
				k := rng.Intn(len(live))
				if a.Release(live[k]) != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			} else {
				size := int64(rng.Intn(100<<10) + 1)
				off, err := a.Alloc(size)
				if err == nil {
					live = append(live, off)
				}
			}
			if a.CheckInvariants() != nil {
				return false
			}
		}
		for _, off := range live {
			if a.Release(off) != nil {
				return false
			}
		}
		return a.CheckInvariants() == nil && a.Used() == 0 && a.FragmentCount() == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: no two live allocations overlap.
func TestPropertyNoOverlap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := NewAllocator(testParams())
		type span struct{ off, size int64 }
		var spans []span
		for i := 0; i < 30; i++ {
			size := int64(rng.Intn(60<<10) + 1)
			off, err := a.Alloc(size)
			if err != nil {
				continue
			}
			n, _ := a.SizeOf(off)
			spans = append(spans, span{off, n})
		}
		for i := range spans {
			for j := i + 1; j < len(spans); j++ {
				x, y := spans[i], spans[j]
				if x.off < y.off+y.size && y.off < x.off+x.size {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNewAllocatorPanicsOnBadParams(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewAllocator(Params{CapacityBytes: 0, AlignBytes: 0})
}

func TestTryAllocMatchesAllocAndRefusesWithoutError(t *testing.T) {
	a := NewAllocator(testParams())
	off, ok := a.TryAlloc(100) // rounds to 1 KiB
	if !ok || off != 0 {
		t.Fatalf("TryAlloc = %d,%v, want 0,true", off, ok)
	}
	if a.Used() != 1<<10 {
		t.Fatalf("used=%d, want 1024", a.Used())
	}
	if _, ok := a.TryAlloc(2 << 20); ok {
		t.Fatal("TryAlloc beyond capacity succeeded")
	}
	if _, ok := a.TryAlloc(0); ok {
		t.Fatal("TryAlloc(0) succeeded")
	}
	if err := a.Release(off); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Fill the heap block by block; the refusal leaves state untouched.
	n := 0
	for {
		if _, ok := a.TryAlloc(1 << 10); !ok {
			break
		}
		n++
	}
	if n != 1024 || a.Free() != 0 {
		t.Fatalf("filled %d blocks, free=%d; want 1024, 0", n, a.Free())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSlotAllocatorMatchesFirstFit drives a SlotAllocator and a first-fit
// Allocator of the same granule and capacity through one seeded sequence of
// allocations and releases: every offset, the accounting, exhaustion and
// the release errors must agree. Slot counts straddle the 64-slot word and
// 4096-slot summary-word boundaries.
func TestSlotAllocatorMatchesFirstFit(t *testing.T) {
	const granule = 1 << 10
	for _, slots := range []int{1, 5, 63, 64, 65, 200, 4095, 4096, 4097, 5000} {
		for seed := int64(1); seed <= 4; seed++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(slots)))
			s := NewSlotAllocator(granule, slots)
			f := NewAllocator(Params{CapacityBytes: int64(slots) * granule, AlignBytes: granule})
			var live []int64
			check := func(step int) {
				t.Helper()
				if s.Used() != f.Used() || s.Peak() != f.Peak() || s.Free() != f.Free() {
					t.Fatalf("slots=%d seed=%d step %d: slot used/peak/free %d/%d/%d, first-fit %d/%d/%d",
						slots, seed, step, s.Used(), s.Peak(), s.Free(), f.Used(), f.Peak(), f.Free())
				}
				if s.FreeSlots()*granule != int(f.Free()) {
					t.Fatalf("slots=%d seed=%d step %d: FreeSlots %d, first-fit free %d bytes",
						slots, seed, step, s.FreeSlots(), f.Free())
				}
			}
			for step := 0; step < 4*slots+200; step++ {
				// Bias toward allocation early and release late, so the run
				// fills the pool, churns at exhaustion, and drains.
				allocP := 0.7
				if step > 2*slots {
					allocP = 0.3
				}
				if len(live) == 0 || rng.Float64() < allocP {
					so, sok := s.TryAlloc()
					fo, fok := f.TryAlloc(granule)
					if so != fo || sok != fok {
						t.Fatalf("slots=%d seed=%d step %d: slot alloc (%d,%v), first-fit (%d,%v)",
							slots, seed, step, so, sok, fo, fok)
					}
					if sok {
						live = append(live, so)
					}
				} else {
					i := rng.Intn(len(live))
					off := live[i]
					live = append(live[:i], live[i+1:]...)
					if err := s.Release(off); err != nil {
						t.Fatalf("slots=%d seed=%d step %d: slot release: %v", slots, seed, step, err)
					}
					if err := f.Release(off); err != nil {
						t.Fatalf("slots=%d seed=%d step %d: first-fit release: %v", slots, seed, step, err)
					}
					// A double free is an error in both.
					if s.Release(off) == nil || f.Release(off) == nil {
						t.Fatalf("slots=%d seed=%d step %d: double free of %d not rejected", slots, seed, step, off)
					}
				}
				check(step)
			}
			for _, bad := range []int64{-granule, 1, granule / 2, int64(slots) * granule, int64(slots+7) * granule} {
				if s.Release(bad) == nil || f.Release(bad) == nil {
					t.Fatalf("slots=%d: release of unknown offset %d not rejected", slots, bad)
				}
			}
			check(-1)
		}
	}
}
