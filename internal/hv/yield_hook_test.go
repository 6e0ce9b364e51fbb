package hv

import (
	"fmt"
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// placement renders every pCPU's current vCPU and runqueue, so a test can
// pin the whole scheduling outcome of one call.
func placement(h *Hypervisor) string {
	s := ""
	for _, p := range h.pcpus {
		s += fmt.Sprintf("p%d:%v%v ", p.ID, p.cur, p.runq)
	}
	return s
}

// auditNow runs the invariant auditor's walk once, at this instant, and
// fails the test on any violation (a vCPU current on two pCPUs, or running
// and queued at once, among others).
func auditNow(t *testing.T, h *Hypervisor, when string) {
	t.Helper()
	a := h.EnableAudit(nil)
	a.audit()
	for _, v := range a.Violations() {
		t.Errorf("%s: %s: %s", when, v.Rule, v.Detail)
	}
}

// TestHookedYieldDefersRequeue: a hooked yield of a vCPU in its home pool
// queues the yielder only when the hook's first migration gets past the
// capacity check. A hook that moves nothing, or whose migration finds the
// micro pool full, leaves the yield to re-dispatch in place.
func TestHookedYieldDefersRequeue(t *testing.T) {
	for _, tc := range []struct {
		name      string
		full      bool // the one micro pCPU runs a vCPU and queues another (RunqLimit 1)
		migrate   bool // the hook migrates the blocked sibling
		inPlace   bool // the yielder is re-dispatched without a requeue
		queuedNow bool // the yielder is queued when MigrateToMicro returns
	}{
		{"no-op hook", false, false, true, false},
		{"micro pool full", true, true, true, false},
		{"hook migrates", false, true, false, true},
	} {
		clock, h := setup(2)
		d := h.NewDomain("vm", nil)
		y := newIntrGuest(h, d).v
		sib := newIntrGuest(h, d).v
		fill := []*VCPU{newIntrGuest(h, d).v, newIntrGuest(h, d).v}
		h.Start()
		h.GrowMicro()
		h.Wake(y, false)
		clock.RunUntil(simtime.Millisecond)
		if tc.full && (!h.MigrateToMicro(fill[0]) || !h.MigrateToMicro(fill[1])) {
			t.Fatalf("%s: could not fill the micro pool", tc.name)
		}
		p := y.pcpu
		var queuedBefore, queuedAfter *PCPU
		h.Hooks.OnYield = func(v *VCPU, _ YieldReason) {
			queuedBefore = v.queuedOn
			if tc.migrate {
				h.MigrateToMicro(sib)
				queuedAfter = v.queuedOn
			}
		}
		var inPlace, declined int
		h.CheckPick = func(_ *PCPU, requeued, got *VCPU) {
			if requeued == nil {
				return
			}
			if got == requeued {
				inPlace++
			} else {
				declined++
			}
		}
		h.Yield(y, YieldPLE)
		if queuedBefore != nil {
			t.Errorf("%s: the hook found the yielder already queued on p%d", tc.name, queuedBefore.ID)
		}
		if (queuedAfter == p) != tc.queuedNow {
			t.Errorf("%s: yielder queued on its pCPU after the hook's migration: %v, want %v", tc.name, !tc.queuedNow, tc.queuedNow)
		}
		if (inPlace == 1) != tc.inPlace || inPlace+declined != 1 {
			t.Errorf("%s: %d in-place re-dispatches and %d declines, want in place %v", tc.name, inPlace, declined, tc.inPlace)
		}
		if y.pcpu != p || y.state != StateRunning {
			t.Errorf("%s: yielder on %v in state %v, want back on p%d", tc.name, y.pcpu, y.state, p.ID)
		}
		if h.yieldV != nil {
			t.Errorf("%s: yield of %v still pending", tc.name, h.yieldV)
		}
		auditNow(t, h, tc.name)
	}
}

// TestHookedYieldFromMicroPool: a micro resident that stays in the micro
// pool after its slice (MicroReturnHome off) is re-queued on its micro
// pCPU before the hook runs. The hook's migration then finds that pCPU
// occupied and queues the sibling behind the yielder. Deferring this
// requeue would let the capacity check see an idle micro pCPU and dispatch
// the sibling ahead of the yielder.
func TestHookedYieldFromMicroPool(t *testing.T) {
	cfg := testConfig(3)
	cfg.MicroReturnHome = false
	cfg.MicroRunqLimit = 2
	clock := simtime.NewClock()
	h := New(clock, cfg)
	d := h.NewDomain("vm", nil)
	y := newIntrGuest(h, d).v
	sib := newIntrGuest(h, d).v
	h.Start()
	if !h.GrowMicro() || !h.MigrateToMicro(y) {
		t.Fatal("no micro pCPU for the yielder")
	}
	clock.RunUntil(simtime.Millisecond)
	h.Hooks.OnYield = func(*VCPU, YieldReason) { h.MigrateToMicro(sib) }
	h.Yield(y, YieldPLE)
	// The placement the yield had when the requeue always came first.
	if got, want := placement(h), "p0:<nil>[] p1:<nil>[] p2:d0v0(running,UNDER)[d0v1(runnable,UNDER)] "; got != want {
		t.Errorf("placement after the yield:\n got %s\nwant %s", got, want)
	}
	auditNow(t, h, "micro-pool yield")
}

// TestHookedYieldPinnedElsewhere: a yielder re-pinned away from the pCPU it
// ran on is queued on its pinned pCPU, and that pCPU tickled, before the
// hook runs. Here the tickle preempts the pinned pCPU's OVER vCPU, which
// then steals the boosted sibling the hook is about to migrate, so the
// migration is refused. Settling this requeue inside the hook's migration
// would dispatch the sibling there after the migration had checked it was
// runnable, leaving it current on two pCPUs.
func TestHookedYieldPinnedElsewhere(t *testing.T) {
	_, h := setup(4)
	d := h.NewDomain("vm", nil)
	other := h.NewDomain("other", nil)
	y := newIntrGuest(h, d).v
	sib := newIntrGuest(h, d).v
	x := newIntrGuest(h, other).v
	z := newIntrGuest(h, other).v
	h.Start()
	if !h.GrowMicro() {
		t.Fatal("no micro pCPU")
	}
	p0, p1, p2 := h.pcpus[0], h.pcpus[1], h.pcpus[2]
	run := func(p *PCPU, v *VCPU, prio Priority) {
		h.setRunnable(v)
		h.dispatch(p, v)
		v.prio, v.boosted = prio, prio == PrioBoost
	}
	run(p0, y, PrioUnder)
	run(p1, x, PrioOver)
	x.credits = -h.Cfg.CreditDebitPerTick
	run(p2, z, PrioBoost)
	h.setRunnable(sib)
	sib.prio, sib.boosted = PrioBoost, true
	h.enqueue(p2, sib)
	h.RePin(y, p1.ID)
	migrated := true
	h.Hooks.OnYield = func(v *VCPU, _ YieldReason) {
		if v == y {
			migrated = h.MigrateToMicro(sib)
		}
	}
	h.Yield(y, YieldPLE)
	if migrated {
		t.Error("the sibling was migrated although the tickle had dispatched it")
	}
	// The placement the yield had when the requeue always came first.
	if got, want := placement(h), "p0:d1v0(running,OVER)[] p1:d0v1(running,BOOST)[d0v0(runnable,UNDER)] p2:d1v1(running,BOOST)[] p3:<nil>[] "; got != want {
		t.Errorf("placement after the yield:\n got %s\nwant %s", got, want)
	}
	auditNow(t, h, "pinned-elsewhere yield")
}
