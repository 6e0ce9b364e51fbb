package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// verifyIndex fails the test on the first occupancy-index inconsistency.
func verifyIndex(t *testing.T, h *Hypervisor, when string) {
	t.Helper()
	if err := h.VerifySchedIndex(); err != nil {
		t.Fatalf("%s: %v", when, err)
	}
}

// TestIndexUnderHotplugChurn repeatedly hot-unplugs and replugs pCPUs while
// oversubscribed guests run, cross-validating the occupancy index against
// the real runqueues after every transition and at steady points in between.
func TestIndexUnderHotplugChurn(t *testing.T) {
	clock, h := setup(4)
	d := h.NewDomain("vm", nil)
	guests := make([]*computeGuest, 8)
	for i := range guests {
		guests[i] = newComputeGuest(h, d, 40*simtime.Millisecond)
	}
	h.Start()
	for _, g := range guests {
		h.Wake(g.v, false)
	}
	verifyIndex(t, h, "after start")

	step := 7 * simtime.Millisecond
	now := simtime.Time(0)
	for round := 0; round < 6; round++ {
		now += step
		clock.RunUntil(now)
		verifyIndex(t, h, "steady state")
		victim := 1 + round%3
		if err := h.OfflinePCPU(victim); err != nil {
			t.Fatalf("round %d: offline p%d: %v", round, victim, err)
		}
		verifyIndex(t, h, "after offline")
		now += step
		clock.RunUntil(now)
		verifyIndex(t, h, "offline steady state")
		if err := h.OnlinePCPU(victim); err != nil {
			t.Fatalf("round %d: online p%d: %v", round, victim, err)
		}
		verifyIndex(t, h, "after online")
	}
	clock.RunUntil(2 * simtime.Second)
	verifyIndex(t, h, "end of run")
	checkInvariants(t, h)
	for i, g := range guests {
		if !g.done {
			t.Fatalf("guest %d never completed under hotplug churn", i)
		}
	}
}

// TestIndexUnderPoolResizeChurn resizes the micro pool while vCPUs sit on
// its runqueues (RunqLimit stacking), so reindex() runs against populated
// queues on both the shrinking and the growing side.
func TestIndexUnderPoolResizeChurn(t *testing.T) {
	clock := simtime.NewClock()
	cfg := testConfig(4)
	cfg.MicroRunqLimit = 3
	h := New(clock, cfg)
	d := h.NewDomain("vm", nil)
	guests := make([]*computeGuest, 6)
	for i := range guests {
		guests[i] = newComputeGuest(h, d, 30*simtime.Millisecond)
	}
	h.Start()
	for _, g := range guests {
		h.Wake(g.v, false)
	}
	clock.RunUntil(simtime.Millisecond)
	verifyIndex(t, h, "warmed up")

	if got := h.SetMicroCount(2); got != 2 {
		t.Fatalf("SetMicroCount(2) achieved %d", got)
	}
	verifyIndex(t, h, "after grow to 2")

	// Stack the micro pool: preempted vCPUs migrate in until the runqueue
	// limit bites, so shrink has queued vCPUs to drain.
	migrated := 0
	for _, g := range guests {
		if g.v.State() == StateRunnable && h.MigrateToMicro(g.v) {
			migrated++
		}
	}
	verifyIndex(t, h, "after micro migrations")

	if got := h.SetMicroCount(1); got != 1 {
		t.Fatalf("SetMicroCount(1) achieved %d", got)
	}
	verifyIndex(t, h, "after shrink to 1")
	if !h.ShrinkMicro() {
		t.Fatal("final ShrinkMicro refused")
	}
	verifyIndex(t, h, "after shrink to 0")
	checkInvariants(t, h)

	clock.RunUntil(simtime.Second)
	verifyIndex(t, h, "end of run")
	for i, g := range guests {
		if !g.done {
			t.Fatalf("guest %d never completed under pool-resize churn", i)
		}
	}
}

// TestIdleTickParksAndResumesOnPhase: a pCPU whose work drains parks its
// tick (no events while idle), and the next enqueue re-arms it exactly on
// the original staggered grid — (fire - phase) is a whole number of ticks.
func TestIdleTickParksAndResumesOnPhase(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	g := newComputeGuest(h, d, 3*simtime.Millisecond)
	h.Start()
	h.Wake(g.v, false)
	// Run past the work plus a full tick period so every tick has had a
	// chance to find its pCPU idle and park.
	clock.RunUntil(3*simtime.Millisecond + 2*h.Cfg.Tick)
	if !g.done {
		t.Fatal("guest never finished")
	}
	verifyIndex(t, h, "drained")
	for _, p := range h.pcpus {
		if !p.parked {
			t.Fatalf("idle p%d did not park its tick", p.ID)
		}
		if p.tick.Pending() {
			t.Fatalf("parked p%d still holds an armed tick", p.ID)
		}
	}
	// A fully idle machine burns no per-pCPU tick events: over a long idle
	// stretch only the global acct tick (every Tick*TicksPerAcct) fires.
	idleSpan := simtime.Duration(100) * h.Cfg.Tick
	fired := clock.RunUntil(clock.Now() + idleSpan)
	acctBudget := uint64(idleSpan/(h.Cfg.Tick*simtime.Duration(h.Cfg.TicksPerAcct))) + 1
	if fired > acctBudget {
		t.Fatalf("idle machine processed %d events over %v, want at most %d acct ticks",
			fired, idleSpan, acctBudget)
	}
	verifyIndex(t, h, "after idle stretch")

	// Wake new work off any tick boundary and check phase alignment.
	g2 := newComputeGuest(h, d, simtime.Millisecond)
	h.Wake(g2.v, false)
	for _, p := range h.pcpus {
		if p.parked || !p.tick.Pending() {
			t.Fatalf("p%d still parked after wake", p.ID)
		}
		at := p.tick.When()
		if at <= clock.Now() {
			t.Fatalf("p%d tick re-armed at %v, not in the future of %v", p.ID, at, clock.Now())
		}
		if off := (at - p.tickPhase) % h.Cfg.Tick; off != 0 {
			t.Fatalf("p%d tick re-armed off-grid: fire %v, phase %v, residue %v",
				p.ID, at, p.tickPhase, off)
		}
	}
	verifyIndex(t, h, "after wake")
	clock.RunUntil(clock.Now() + simtime.Millisecond + 2*h.Cfg.Tick)
	if !g2.done {
		t.Fatal("second guest never finished")
	}
	verifyIndex(t, h, "end of run")
}

// TestIndexSurvivesOfflineWhileParked covers the interaction of the two new
// pCPU states: parking an idle tick and then hot-unplugging the pCPU (and
// bringing it back) must keep index, parked mask, and tick arming coherent.
func TestIndexSurvivesOfflineWhileParked(t *testing.T) {
	clock, h := setup(3)
	d := h.NewDomain("vm", nil)
	g := newComputeGuest(h, d, 2*simtime.Millisecond)
	h.Start()
	h.Wake(g.v, false)
	clock.RunUntil(2*simtime.Millisecond + 2*h.Cfg.Tick) // drain: every pCPU parks
	if !g.done {
		t.Fatal("guest never finished")
	}
	verifyIndex(t, h, "drained")

	if err := h.OfflinePCPU(2); err != nil {
		t.Fatalf("offline parked p2: %v", err)
	}
	verifyIndex(t, h, "offline while parked")
	if err := h.OnlinePCPU(2); err != nil {
		t.Fatalf("online p2: %v", err)
	}
	verifyIndex(t, h, "back online")

	g2 := newComputeGuest(h, d, 2*simtime.Millisecond)
	h.Wake(g2.v, false)
	clock.RunUntil(clock.Now() + 2*simtime.Millisecond + 2*h.Cfg.Tick)
	if !g2.done {
		t.Fatal("guest never finished after offline/online of a parked pCPU")
	}
	verifyIndex(t, h, "end of run")
	checkInvariants(t, h)
}
