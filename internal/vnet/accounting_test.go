package vnet

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestLossRateIgnoresInFlight is the regression test for the mid-run loss
// accounting bug: with the consumer paused (guest never started), offered
// packets pile up in the ring and the delivery pipeline. They are in
// flight, not lost — a mid-run LossRate read must agree with the
// end-of-run read instead of counting the pipeline occupancy as loss.
func TestLossRateIgnoresInFlight(t *testing.T) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 2
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "paused", 1, ksym.Generate(4), guest.DefaultParams())
	nic := NewNIC(h, k.Dom, 1<<16) // ring big enough: nothing actually drops
	k.AttachNIC(nic)
	flow, err := NewUDPFlow(clock, nic, 0, 1500, 120e6) // 10k pkt/s
	if err != nil {
		t.Fatal(err)
	}
	flow.Attach(k.NewSocket(0))
	h.Start()
	// Consumer paused: the kernel is never started, so no packet is ever
	// fetched or consumed.
	flow.Start()
	clock.RunUntil(100 * simtime.Millisecond)
	if flow.seq < 100 {
		t.Fatalf("only %d packets offered", flow.seq)
	}
	if nic.RingLen() == 0 {
		t.Fatal("expected ring-resident packets with a paused consumer")
	}
	if got := flow.LossRate(); got != 0 {
		t.Fatalf("mid-run LossRate %.4f with zero drops — in-flight counted as lost", got)
	}
	// Let the run end without ever consuming: still not loss.
	flow.Stop()
	clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
	if got := flow.LossRate(); got != 0 {
		t.Fatalf("end-of-run LossRate %.4f with zero drops", got)
	}

	// Actual tail drops do count.
	nic2 := NewNIC(h, k.Dom, 2)
	f2, err := NewUDPFlow(clock, nic2, 1, 1500, 120e6)
	if err != nil {
		t.Fatal(err)
	}
	f2.Start()
	clock.RunUntil(clock.Now() + 100*simtime.Millisecond)
	f2.Stop()
	if f2.Dropped == 0 || f2.LossRate() == 0 {
		t.Fatalf("dropped=%d loss=%.4f, want real tail-drop loss", f2.Dropped, f2.LossRate())
	}
	if want := float64(f2.Dropped) / float64(f2.seq); f2.LossRate() != want {
		t.Fatalf("LossRate %.6f != dropped/offered %.6f", f2.LossRate(), want)
	}
}

// TestGoodputSinglePacketWindow is the regression test for the
// zero-width-window bug: one consumed packet used to leave first==last and
// report 0 bps; the documented fallback is the elapsed run time.
func TestGoodputSinglePacketWindow(t *testing.T) {
	cases := []struct {
		name      string
		rx        []simtime.Time // consume instants
		rxBytes   uint64
		startedAt simtime.Time
		want      func(got float64) bool
	}{
		{
			name: "no-rx",
			want: func(got float64) bool { return got == 0 },
		},
		{
			name:      "single-packet-falls-back-to-run-time",
			rx:        []simtime.Time{simtime.Time(500 * simtime.Millisecond)},
			rxBytes:   1500,
			startedAt: 0,
			// 1500B over 500ms = 24 kbit/s — defined, not 0.
			want: func(got float64) bool { return got > 23e3 && got < 25e3 },
		},
		{
			name:      "two-packets-use-consume-window",
			rx:        []simtime.Time{simtime.Time(100 * simtime.Millisecond), simtime.Time(200 * simtime.Millisecond)},
			rxBytes:   3000,
			startedAt: 0,
			// 3000B over the 100ms between consumes = 240 kbit/s.
			want: func(got float64) bool { return got > 235e3 && got < 245e3 },
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &UDPFlow{startedAt: c.startedAt, RxBytes: c.rxBytes}
			for _, at := range c.rx {
				if !f.haveRx {
					f.haveRx = true
					f.firstRx = at
				}
				f.lastRx = at
			}
			if got := f.GoodputBps(); !c.want(got) {
				t.Fatalf("goodput %.1f bps", got)
			}
			// TCPFlow shares the same window semantics.
			tf := &TCPFlow{startedAt: c.startedAt, RxBytes: c.rxBytes,
				haveRx: f.haveRx, firstRx: f.firstRx, lastRx: f.lastRx}
			if got := tf.GoodputBps(); !c.want(got) {
				t.Fatalf("tcp goodput %.1f bps", got)
			}
		})
	}
}

// TestRingWraparoundFIFO drives the circular buffer through several
// wrap-arounds with interleaved partial drains and checks strict FIFO
// delivery — behavior identical to the old slice-backed ring.
func TestRingWraparoundFIFO(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 8)
	var next, want uint64
	for round := 0; round < 50; round++ {
		for i := 0; i < 5; i++ {
			if nic.Rx(guest.Packet{Seq: next, Bytes: 64}) {
				next++
			}
		}
		for _, p := range nic.Fetch(3) {
			if p.Seq != want {
				t.Fatalf("round %d: got seq %d, want %d", round, p.Seq, want)
			}
			want++
		}
	}
	for {
		batch := nic.Fetch(3)
		if len(batch) == 0 {
			break
		}
		for _, p := range batch {
			if p.Seq != want {
				t.Fatalf("drain: got seq %d, want %d", p.Seq, want)
			}
			want++
		}
	}
	if want != next {
		t.Fatalf("delivered %d of %d admitted", want, next)
	}
	if nic.RingLen() != 0 {
		t.Fatalf("ring not empty: %d", nic.RingLen())
	}
}

// quietRing returns a warmed-up NIC whose IRQ side is held inert (latch
// pre-raised, moderation timer pinned), so Rx/Fetch exercise only the ring
// machinery: the zero-alloc claim under test is about the ring and the
// fetch scratch (the old implementation allocated two slices per
// partial-drain Fetch). TestReassertRearmAllocFree covers the IRQ side.
func quietRing(cap, warm int) *NIC {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), cap)
	nic.irqRaised = true
	// Pin: the clock never runs, so the re-assert stays pending and every
	// coalesced Rx must leave it alone; re-arming a queued event panics.
	nic.reassertEv.Arm(simtime.Second)
	for i := 0; i < warm; i++ {
		nic.Rx(guest.Packet{Seq: uint64(i), Bytes: 64})
	}
	nic.Fetch(warm)
	nic.irqRaised = true
	return nic
}

// TestFetchZeroAlloc: the ring's admission and drain paths must not
// allocate at steady state.
func TestFetchZeroAlloc(t *testing.T) {
	nic := quietRing(256, 256)
	allocs := testing.AllocsPerRun(10, func() {
		// Offset by a prime each run so the window wraps at varying phases.
		for i := 0; i < 96; i++ {
			nic.Rx(guest.Packet{Seq: uint64(i), Bytes: 64})
		}
		nic.Fetch(96)
		nic.irqRaised = true
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocs per fill+drain cycle, want 0", allocs)
	}
}

func BenchmarkNICFetch(b *testing.B) {
	nic := quietRing(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 64; j++ {
			nic.Rx(guest.Packet{Seq: uint64(j), Bytes: 64})
		}
		nic.Fetch(64)
		nic.irqRaised = true
	}
}

// TestIRQReassert: with the guest never fetching, the moderation timer must
// keep re-asserting the IRQ so the backlog stays visible to the hypervisor
// (and to IRQ-triggered acceleration). Draining stops re-assertion.
func TestIRQReassert(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 64)
	nic.Rx(guest.Packet{Seq: 1, Bytes: 64}) // edge IRQ
	nic.Rx(guest.Packet{Seq: 2, Bytes: 64}) // coalesced: arms the timer
	if nic.IRQs != 1 {
		t.Fatalf("IRQs=%d before timer", nic.IRQs)
	}
	clock.RunUntil(simtime.Millisecond)
	if nic.Reasserts < 5 {
		t.Fatalf("reasserts=%d after 1ms of unserviced backlog, want >= 5", nic.Reasserts)
	}
	// Drain; the timer finds an empty ring and stops.
	nic.Fetch(64)
	before := nic.IRQs
	clock.RunUntil(clock.Now() + simtime.Millisecond)
	if nic.IRQs != before {
		t.Fatalf("IRQs grew %d -> %d after drain", before, nic.IRQs)
	}

	// Disabled moderation: pure edge-triggered coalescing.
	nic2 := NewNIC(h, bareDom(h), 64)
	nic2.reassert = 0 // pure edge-triggered coalescing
	nic2.Rx(guest.Packet{Seq: 1, Bytes: 64})
	nic2.Rx(guest.Packet{Seq: 2, Bytes: 64})
	clock.RunUntil(clock.Now() + simtime.Millisecond)
	if nic2.IRQs != 1 {
		t.Fatalf("disabled reassert: IRQs=%d, want 1", nic2.IRQs)
	}
}

// deafGuest runs forever and ignores its interrupts, so a NIC attached to
// its domain keeps an unserviced backlog.
type deafGuest struct{ irqs int }

func (g *deafGuest) OnScheduled(simtime.Time)                    {}
func (g *deafGuest) OnDescheduled(simtime.Time)                  {}
func (g *deafGuest) OnInterrupt(simtime.Time, hv.Vector, uint64) { g.irqs++ }
func (g *deafGuest) RIP() uint64                                 { return ksym.UserRIP }

// TestReassertRearmAllocFree: while the backlog sits unfetched, each
// moderation period re-raises the IRQ all the way to the running IRQ vCPU
// and re-arms the owned timer in place, allocating nothing.
func TestReassertRearmAllocFree(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	d := h.NewDomain("vm", nil)
	g := &deafGuest{}
	v := h.AddVCPU(d, g)
	h.Start()
	h.Wake(v, false)
	nic := NewNIC(h, d, 64)
	nic.Rx(guest.Packet{Seq: 1, Bytes: 64}) // edge IRQ
	nic.Rx(guest.Packet{Seq: 2, Bytes: 64}) // coalesced: arms the timer
	period := func() { clock.RunUntil(clock.Now() + DefaultIRQReassert) }
	period() // allocates the first interrupt records
	if v.State() != hv.StateRunning {
		t.Fatalf("IRQ vCPU %v, want running", v.State())
	}
	before, irqs := nic.Reasserts, g.irqs
	if allocs := testing.AllocsPerRun(1000, period); allocs != 0 {
		t.Errorf("%v allocs per re-assert period, want 0", allocs)
	}
	if got := nic.Reasserts - before; got != 1001 {
		t.Fatalf("%d re-asserts in 1001 periods, want one each", got)
	}
	if got := g.irqs - irqs; got != 1001 {
		t.Fatalf("%d interrupts reached the vCPU in 1001 periods, want one each", got)
	}
}
