package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// BenchmarkStealScan measures pickNext's cross-queue steal on a wide pool:
// 16 pCPUs all busy, one runqueue stacked with runnable vCPUs, everyone
// else's empty. The occupancy bitmask reduces the scan to a single
// trailing-zeros probe of the one occupied queue; each iteration steals the
// head (dequeue) and puts it back (enqueue), exercising the full index
// maintenance of both hot paths.
func BenchmarkStealScan(b *testing.B) {
	clock, h := setup(16)
	d := h.NewDomain("vm", nil)
	runners := make([]*computeGuest, 16)
	for i := range runners {
		runners[i] = newComputeGuest(h, d, simtime.Second)
	}
	h.Start()
	for _, g := range runners {
		h.Wake(g.v, false)
	}
	clock.RunUntil(simtime.Millisecond) // every pCPU now runs a guest
	victim := h.pcpus[0]
	for i := 0; i < 8; i++ {
		e := newComputeGuest(h, d, simtime.Second)
		h.setRunnable(e.v)
		h.enqueue(victim, e.v)
	}
	stealer := h.pcpus[8]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := h.pickNext(stealer)
		if v == nil {
			b.Fatal("steal scan found nothing")
		}
		h.enqueue(victim, v)
	}
}

// BenchmarkWakeToDispatch measures the full wake → placement → dispatch →
// block cycle on a 16-pCPU host: homePCPU's idle-slot probe is one mask
// operation instead of a least-loaded walk over all members.
func BenchmarkWakeToDispatch(b *testing.B) {
	clock, h := setup(16)
	d := h.NewDomain("vm", nil)
	g := &haltGuest{h: h}
	g.v = h.AddVCPU(d, g)
	h.Start()
	for i := 0; i < 64; i++ {
		h.Wake(g.v, true)
		clock.RunUntil(clock.Now() + 100*simtime.Microsecond)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Wake(g.v, true)
		clock.RunUntil(clock.Now() + 100*simtime.Microsecond)
	}
}

// BenchmarkIdleTicks measures one simulated second of a fully idle 16-pCPU
// host per iteration. With idle-tick suppression the only periodic events
// left are the global accounting ticks — parked pCPUs cost nothing.
func BenchmarkIdleTicks(b *testing.B) {
	clock, h := setup(16)
	d := h.NewDomain("vm", nil)
	g := newComputeGuest(h, d, simtime.Millisecond)
	h.Start()
	h.Wake(g.v, false)
	clock.RunUntil(simtime.Millisecond + 2*h.Cfg.Tick) // drain; all ticks park
	if !g.done {
		b.Fatal("warmup guest never finished")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clock.RunUntil(clock.Now() + simtime.Second)
	}
}

// BenchmarkYieldRedispatch measures one cycle of the yield storm on one
// pCPU: a PLE yield with an OVER vCPU queued behind the yielder, which
// takes the pCPU straight back. "in-place" is Yield's re-dispatch without
// the queue; "requeue" forces the enqueue → pickNext → dequeue round trip
// with a no-op OnYield hook.
func BenchmarkYieldRedispatch(b *testing.B) {
	for _, regular := range []bool{false, true} {
		name := "in-place"
		if regular {
			name = "requeue"
		}
		b.Run(name, func(b *testing.B) {
			// A 1000 s tick keeps credit accounting out of any run length:
			// the yielder stays UNDER and the queued vCPU OVER.
			cfg := testConfig(1)
			cfg.Tick = 1000 * simtime.Second
			clock := simtime.NewClock()
			h := New(clock, cfg)
			d := h.NewDomain("vm", nil)
			g := newPLEGuest(h, d)
			over := newIntrGuest(h, d).v
			over.credits = -1
			if regular {
				h.Hooks.OnYield = func(*VCPU, YieldReason) {}
			}
			h.Start()
			h.Wake(g.v, false)
			h.Wake(over, false)
			clock.RunUntil(simtime.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for yields := g.yields; g.yields == yields; {
					clock.Step()
				}
			}
			b.StopTimer()
			if over.queuedOn == nil {
				b.Fatal("the OVER vCPU ran")
			}
		})
	}
}
