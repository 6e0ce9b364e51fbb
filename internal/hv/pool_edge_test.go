package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestSetMicroCountAllPinned: when every normal pCPU carries pinned load,
// GrowMicro has no donor and SetMicroCount must settle at zero without
// disturbing the pinned vCPUs.
func TestSetMicroCountAllPinned(t *testing.T) {
	clock, h := setup(3)
	d := h.NewDomain("vm", nil)
	guests := make([]*computeGuest, 3)
	for i := range guests {
		guests[i] = newComputeGuest(h, d, 100*simtime.Millisecond)
		guests[i].v.Pin(i)
	}
	h.Start()
	for _, g := range guests {
		h.Wake(g.v, false)
	}
	clock.RunUntil(simtime.Millisecond)
	for i, g := range guests {
		if g.v.pcpu == nil || g.v.pcpu.ID != i {
			t.Fatalf("guest %d not running on its pin", i)
		}
	}

	if got := h.SetMicroCount(2); got != 0 {
		t.Fatalf("SetMicroCount(2) with all pCPUs pinned-loaded achieved %d, want 0", got)
	}
	if n := len(h.micro.pcpus); n != 0 {
		t.Fatalf("micro pool has %d pCPUs, want 0", n)
	}
	if n := len(h.normal.pcpus); n != 3 {
		t.Fatalf("normal pool has %d pCPUs, want 3", n)
	}
	if v := h.Counters.Value("pin.violated"); v != 0 {
		t.Fatalf("pin violated %d times", v)
	}
	// Every pinned vCPU stayed where it was.
	for i, g := range guests {
		if g.v.pcpu == nil || g.v.pcpu.ID != i {
			t.Fatalf("guest %d displaced from its pin by the failed grow", i)
		}
	}
	checkInvariants(t, h)
}

// TestShrinkMicroDrainsStackedRunqueue: with a non-zero RunqLimit the micro
// pool can stack runnable vCPUs behind a running one; ShrinkMicro must send
// every resident home (keeping the migrate ledgers balanced), not strand or
// drop the queued ones.
func TestShrinkMicroDrainsStackedRunqueue(t *testing.T) {
	clock := simtime.NewClock()
	cfg := testConfig(4)
	cfg.MicroRunqLimit = 2
	h := New(clock, cfg)
	d := h.NewDomain("vm", nil)
	guests := make([]*computeGuest, 3)
	for i := range guests {
		guests[i] = newComputeGuest(h, d, 100*simtime.Millisecond)
	}
	h.Start()
	if got := h.SetMicroCount(1); got != 1 {
		t.Fatalf("SetMicroCount(1) achieved %d", got)
	}
	// Stack the single micro pCPU: one dispatched, two queued at the limit.
	for i, g := range guests {
		if !h.MigrateToMicro(g.v) {
			t.Fatalf("MigrateToMicro of guest %d refused", i)
		}
	}
	mp := h.micro.pcpus[0]
	if mp.cur == nil || len(mp.runq) != 2 {
		t.Fatalf("micro pCPU not stacked: cur=%v runq=%d", mp.cur, len(mp.runq))
	}
	extra := newComputeGuest(h, d, 100*simtime.Millisecond)
	h.Wake(extra.v, false)
	if h.MigrateToMicro(extra.v) {
		t.Fatal("MigrateToMicro succeeded past the runqueue limit")
	}

	if !h.ShrinkMicro() {
		t.Fatal("ShrinkMicro refused")
	}
	if n := len(h.micro.pcpus); n != 0 {
		t.Fatalf("micro pool has %d pCPUs after shrink, want 0", n)
	}
	for i, g := range guests {
		if g.v.pool != h.normal {
			t.Fatalf("guest %d still in micro pool after shrink", i)
		}
	}
	if micro, home := h.Counters.Value("migrate.micro"), h.Counters.Value("migrate.home"); micro != 3 || home != 3 {
		t.Fatalf("migrate ledger unbalanced after shrink: micro=%d home=%d, want 3/3", micro, home)
	}
	checkInvariants(t, h)
	// The system still makes progress afterwards.
	clock.RunUntil(simtime.Second)
	for i, g := range guests {
		if !g.done {
			t.Fatalf("guest %d never completed after shrink", i)
		}
	}
}

// TestPoolResizeMidWarmup: growing and shrinking the micro pool while a
// dispatch warmup (context-switch + cold-cache charge) is still in flight
// must cancel the warmup cleanly — no stranded vCPU, no double dispatch —
// and the preempted guests must still run to completion.
func TestPoolResizeMidWarmup(t *testing.T) {
	clock, h := setup(3)
	d := h.NewDomain("vm", nil)
	guests := make([]*computeGuest, 3)
	for i := range guests {
		guests[i] = newComputeGuest(h, d, 5*simtime.Millisecond)
	}
	h.Start()
	for _, g := range guests {
		h.Wake(g.v, false)
	}
	// Cold dispatch warmup lasts CtxSwitchCost+ColdCacheCost (16.5us by
	// default); 8us in is mid-warmup on every pCPU.
	clock.RunUntil(8 * simtime.Microsecond)
	warming := 0
	for _, g := range guests {
		if p := g.v.pcpu; p != nil && p.ctxsw.Pending() {
			warming++
		}
	}
	if warming == 0 {
		t.Fatal("no dispatch warmup in flight at 8us; test premise broken")
	}

	if got := h.SetMicroCount(2); got != 2 {
		t.Fatalf("SetMicroCount(2) achieved %d", got)
	}
	checkInvariants(t, h)
	if got := h.SetMicroCount(0); got != 0 {
		t.Fatalf("SetMicroCount(0) achieved %d", got)
	}
	checkInvariants(t, h)

	clock.RunUntil(simtime.Second)
	for i, g := range guests {
		if !g.done {
			t.Fatalf("guest %d never completed after mid-warmup resizes", i)
		}
	}
	checkInvariants(t, h)
}
