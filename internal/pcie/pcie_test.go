package pcie

import (
	"testing"
	"testing/quick"
	"time"

	"hccsim/internal/sim"
)

// transfer blocks p for one TransferA on l.
func transfer(p *sim.Proc, l *Link, d Direction, n int64) {
	p.Await(func(a *sim.Actor, step func(any), state any) { l.TransferA(a, d, n, step, state) })
}

func TestTransferTimeMonotonic(t *testing.T) {
	l := NewLink(sim.NewEngine(), defaultParams())
	prev := time.Duration(0)
	for _, n := range []int64{0, 64, 4096, 1 << 20, 1 << 30} {
		d := l.TransferTime(n)
		if d < prev {
			t.Fatalf("TransferTime(%d)=%v < previous %v", n, d, prev)
		}
		prev = d
	}
}

func TestLargeTransferApproachesLinkRate(t *testing.T) {
	l := NewLink(sim.NewEngine(), defaultParams())
	n := int64(1 << 30)
	d := l.TransferTime(n)
	gbps := float64(n) / d.Seconds() / 1e9
	if gbps < 0.98*defaultParams().EffectiveGBps || gbps > defaultParams().EffectiveGBps {
		t.Fatalf("1GiB effective rate %.2f GB/s, want just under %.2f", gbps, defaultParams().EffectiveGBps)
	}
}

func TestSmallTransferLatencyBound(t *testing.T) {
	l := NewLink(sim.NewEngine(), defaultParams())
	d := l.TransferTime(64)
	if d < defaultParams().TransactionLatency {
		t.Fatalf("64B transfer %v under transaction latency", d)
	}
	gbps := 64.0 / d.Seconds() / 1e9
	if gbps > 1.0 {
		t.Fatalf("64B transfer achieved %.3f GB/s; should be latency-dominated", gbps)
	}
}

func TestSameDirectionSerializesOppositeOverlaps(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, defaultParams())
	n := int64(100 << 20)
	single := l.TransferTime(n)

	// Two H2D transfers: serialized.
	var h2dEnd sim.Time
	eng.Spawn("a", func(p *sim.Proc) { transfer(p, l, H2D, n) })
	eng.Spawn("b", func(p *sim.Proc) { transfer(p, l, H2D, n); h2dEnd = p.Now() })
	eng.Run()
	if time.Duration(h2dEnd) < 2*single {
		t.Fatalf("same-direction transfers overlapped: end %v < %v", h2dEnd, 2*single)
	}

	// H2D + D2H: full duplex, finish together.
	eng2 := sim.NewEngine()
	l2 := NewLink(eng2, defaultParams())
	var aEnd, bEnd sim.Time
	eng2.Spawn("a", func(p *sim.Proc) { transfer(p, l2, H2D, n); aEnd = p.Now() })
	eng2.Spawn("b", func(p *sim.Proc) { transfer(p, l2, D2H, n); bEnd = p.Now() })
	eng2.Run()
	if aEnd != bEnd || time.Duration(aEnd) > single+time.Microsecond {
		t.Fatalf("duplex transfers did not overlap: %v / %v (single=%v)", aEnd, bEnd, single)
	}
}

func TestAccounting(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, defaultParams())
	eng.Spawn("a", func(p *sim.Proc) {
		transfer(p, l, H2D, 1000)
		transfer(p, l, H2D, 2000)
		transfer(p, l, D2H, 500)
	})
	eng.Run()
	if l.BytesMoved(H2D) != 3000 || l.BytesMoved(D2H) != 500 {
		t.Fatalf("bytes moved: h2d=%d d2h=%d", l.BytesMoved(H2D), l.BytesMoved(D2H))
	}
	if l.Transfers(H2D) != 2 || l.Transfers(D2H) != 1 {
		t.Fatalf("transfer counts: %d/%d", l.Transfers(H2D), l.Transfers(D2H))
	}
	if l.Busy(H2D) <= 0 {
		t.Fatal("no busy time recorded")
	}
}

// Property: N serialized same-direction transfers take exactly N times one.
func TestPropertySerialLinkAdditive(t *testing.T) {
	f := func(count uint8, kb uint16) bool {
		n := int(count%8) + 1
		size := int64(kb)*1024 + 1
		eng := sim.NewEngine()
		l := NewLink(eng, defaultParams())
		for i := 0; i < n; i++ {
			eng.Spawn("x", func(p *sim.Proc) { transfer(p, l, H2D, size) })
		}
		end := eng.Run()
		want := time.Duration(n) * l.TransferTime(size)
		diff := time.Duration(end) - want
		if diff < 0 {
			diff = -diff
		}
		return diff <= time.Duration(n)*time.Nanosecond // rounding slack
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorsAndSPDM(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, defaultParams())
	if l.Params().EffectiveGBps != defaultParams().EffectiveGBps {
		t.Fatal("Params accessor broken")
	}
	if H2D.String() != "H2D" || D2H.String() != "D2H" {
		t.Fatal("Direction strings wrong")
	}
	eng.Spawn("attest", func(p *sim.Proc) { l.EstablishSPDM(p) })
	end := eng.Run()
	if time.Duration(end) != defaultParams().SPDMSession {
		t.Fatalf("SPDM handshake = %v, want %v", time.Duration(end), defaultParams().SPDMSession)
	}
	// Negative sizes clamp to the per-transaction latency.
	if l.TransferTime(-5) != defaultParams().TransactionLatency {
		t.Fatal("negative-size transfer not clamped")
	}
}
