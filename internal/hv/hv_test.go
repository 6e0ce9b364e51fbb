package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// ---------------------------------------------------------------------------
// Fake guests implementing GuestContext for scheduler tests.
// ---------------------------------------------------------------------------

// computeGuest runs for a fixed amount of CPU work, then halts.
type computeGuest struct {
	h         *Hypervisor
	v         *VCPU
	remaining simtime.Duration
	startedAt simtime.Time
	ev        *simtime.Event
	done      bool
	doneAt    simtime.Time
	scheds    int
	descheds  int
	rip       uint64
}

func newComputeGuest(h *Hypervisor, d *Domain, work simtime.Duration) *computeGuest {
	g := &computeGuest{h: h, remaining: work, rip: 0x400000}
	g.v = h.AddVCPU(d, g)
	return g
}

func (g *computeGuest) OnScheduled(now simtime.Time) {
	g.scheds++
	g.startedAt = now
	if g.remaining <= 0 {
		g.h.Block(g.v)
		return
	}
	g.ev = g.h.Clock.After(g.remaining, g.complete)
}

func (g *computeGuest) OnDescheduled(now simtime.Time) {
	g.descheds++
	if g.ev != nil {
		g.ev.Cancel()
		g.ev = nil
	}
	consumed := now - g.startedAt
	g.remaining -= consumed
}

func (g *computeGuest) complete() {
	g.ev = nil
	g.done = true
	g.doneAt = g.h.Clock.Now()
	g.h.Block(g.v)
}

func (g *computeGuest) OnInterrupt(now simtime.Time, vec Vector, data uint64) {}
func (g *computeGuest) RIP() uint64                                           { return g.rip }

// spinGuest spins forever, triggering a PLE yield every pleDelay of CPU.
type spinGuest struct {
	h        *Hypervisor
	v        *VCPU
	pleDelay simtime.Duration
	ev       *simtime.Event
	yields   int
	rip      uint64
}

func newSpinGuest(h *Hypervisor, d *Domain, pleDelay simtime.Duration) *spinGuest {
	g := &spinGuest{h: h, pleDelay: pleDelay, rip: 0xffffffff81000000}
	g.v = h.AddVCPU(d, g)
	return g
}

func (g *spinGuest) OnScheduled(now simtime.Time) {
	g.ev = g.h.Clock.After(g.pleDelay, func() {
		g.ev = nil
		g.yields++
		g.h.Yield(g.v, YieldPLE)
	})
}

func (g *spinGuest) OnDescheduled(now simtime.Time) {
	if g.ev != nil {
		g.ev.Cancel()
		g.ev = nil
	}
}

func (g *spinGuest) OnInterrupt(now simtime.Time, vec Vector, data uint64) {}
func (g *spinGuest) RIP() uint64                                           { return g.rip }

// intrGuest records interrupt deliveries; otherwise it computes forever.
type intrGuest struct {
	h       *Hypervisor
	v       *VCPU
	intrs   []Vector
	intrAt  []simtime.Time
	running bool
}

func newIntrGuest(h *Hypervisor, d *Domain) *intrGuest {
	g := &intrGuest{h: h}
	g.v = h.AddVCPU(d, g)
	return g
}

func (g *intrGuest) OnScheduled(now simtime.Time) { g.running = true }
func (g *intrGuest) OnDescheduled(now simtime.Time) {
	g.running = false
}
func (g *intrGuest) OnInterrupt(now simtime.Time, vec Vector, data uint64) {
	g.intrs = append(g.intrs, vec)
	g.intrAt = append(g.intrAt, now)
}
func (g *intrGuest) RIP() uint64 { return 0x400000 }

// ---------------------------------------------------------------------------
// Invariant checking
// ---------------------------------------------------------------------------

func checkInvariants(t *testing.T, h *Hypervisor) {
	t.Helper()
	seen := make(map[*VCPU]string)
	note := func(v *VCPU, where string) {
		if prev, ok := seen[v]; ok {
			t.Fatalf("vCPU %v present at both %s and %s", v, prev, where)
		}
		seen[v] = where
	}
	for _, p := range h.pcpus {
		if p.cur != nil {
			note(p.cur, "cur")
			if p.cur.state != StateRunning {
				t.Fatalf("current %v not Running", p.cur)
			}
			if p.cur.pcpu != p {
				t.Fatalf("current %v back-pointer wrong", p.cur)
			}
			if p.cur.pool != p.pool {
				t.Fatalf("current %v pool mismatch on p%d", p.cur, p.ID)
			}
		}
		prevPrio := Priority(-1)
		for _, v := range p.runq {
			note(v, "runq")
			if v.state != StateRunnable {
				t.Fatalf("queued %v not Runnable", v)
			}
			if v.queuedOn != p {
				t.Fatalf("queued %v back-pointer wrong", v)
			}
			if v.pool != p.pool {
				t.Fatalf("queued %v pool mismatch", v)
			}
			if v.prio < prevPrio {
				t.Fatalf("runq on p%d not priority-sorted", p.ID)
			}
			prevPrio = v.prio
		}
	}
	for _, v := range h.vcpus {
		switch v.state {
		case StateBlocked:
			if v.queuedOn != nil || v.pcpu != nil {
				t.Fatalf("blocked %v still placed", v)
			}
		case StateRunnable:
			if v.queuedOn == nil {
				t.Fatalf("runnable %v not queued", v)
			}
		case StateRunning:
			if v.pcpu == nil || v.pcpu.cur != v {
				t.Fatalf("running %v not current anywhere", v)
			}
		}
	}
}

func testConfig(pcpus int) Config {
	cfg := DefaultConfig()
	cfg.PCPUs = pcpus
	return cfg
}

func setup(pcpus int) (*simtime.Clock, *Hypervisor) {
	clock := simtime.NewClock()
	h := New(clock, testConfig(pcpus))
	return clock, h
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

func TestSingleVCPURunsToCompletion(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	g := newComputeGuest(h, d, 5*simtime.Millisecond)
	h.Start()
	h.Wake(g.v, false)
	clock.RunUntil(simtime.Second)
	if !g.done {
		t.Fatal("guest never completed")
	}
	// Work 5ms + one cold dispatch.
	want := 5*simtime.Millisecond + h.Cfg.CtxSwitchCost + h.Cfg.ColdCacheCost
	if g.doneAt != want {
		t.Fatalf("done at %v, want %v", g.doneAt, want)
	}
	if g.v.State() != StateBlocked {
		t.Fatalf("vCPU state %v after completion", g.v.State())
	}
	checkInvariants(t, h)
}

func TestTimeSharingAlternatesSlices(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	a := newComputeGuest(h, d, 100*simtime.Millisecond)
	b := newComputeGuest(h, d, 100*simtime.Millisecond)
	h.Start()
	h.Wake(a.v, false)
	h.Wake(b.v, false)
	clock.RunUntil(90 * simtime.Millisecond)
	// With a 30ms slice both must have run by now, neither finished.
	if a.scheds == 0 || b.scheds == 0 {
		t.Fatalf("scheds a=%d b=%d", a.scheds, b.scheds)
	}
	if a.done || b.done {
		t.Fatal("nothing should be done at 90ms")
	}
	if h.Counters.Value("sched.preempt") == 0 {
		t.Fatal("no slice preemptions recorded")
	}
	clock.RunUntil(simtime.Second)
	if !a.done || !b.done {
		t.Fatal("guests did not finish")
	}
	// Fair sharing: both ran 100ms of work on one pCPU; completion within
	// ~two slices of each other (tick-driven priority preemption can skew
	// the final slice boundaries).
	diff := a.doneAt - b.doneAt
	if diff < 0 {
		diff = -diff
	}
	if diff > 65*simtime.Millisecond {
		t.Fatalf("unfair completion gap %v", diff)
	}
	checkInvariants(t, h)
}

func TestYieldGivesUpCPU(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	spin := newSpinGuest(h, d, 25*simtime.Microsecond)
	comp := newComputeGuest(h, d, 1*simtime.Millisecond)
	h.Start()
	h.Wake(spin.v, false)
	h.Wake(comp.v, false)
	clock.RunUntil(100 * simtime.Millisecond)
	if spin.yields == 0 {
		t.Fatal("spinner never yielded")
	}
	if !comp.done {
		t.Fatal("compute guest starved despite yields")
	}
	// The compute guest should finish far sooner than a full 30ms slice
	// wait, because the spinner yields every 25us.
	if comp.doneAt > 3*simtime.Millisecond {
		t.Fatalf("compute finished at %v; yields did not hand over the pCPU", comp.doneAt)
	}
	if h.Counters.Value("yield.ple") == 0 || d.Counters.Value("yield.ple") == 0 {
		t.Fatal("PLE yields not counted")
	}
	checkInvariants(t, h)
}

func TestWakeBoostPreemptsLowerPriority(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	hog := newComputeGuest(h, d, simtime.Second)
	sleeper := newIntrGuest(h, d)
	h.Start()
	h.Wake(hog.v, false)
	clock.RunUntil(5 * simtime.Millisecond)
	if hog.v.State() != StateRunning {
		t.Fatal("hog should be running")
	}
	h.Wake(sleeper.v, true)
	clock.RunUntil(5*simtime.Millisecond + 10*simtime.Microsecond)
	if sleeper.v.State() != StateRunning {
		t.Fatalf("boosted wake did not preempt: sleeper=%v", sleeper.v.State())
	}
	if h.Counters.Value("boost") == 0 {
		t.Fatal("boost not counted")
	}
	checkInvariants(t, h)
}

func TestWakeOfRunnableIsNoBoostNoOp(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	a := newComputeGuest(h, d, simtime.Second)
	b := newComputeGuest(h, d, simtime.Second)
	h.Start()
	h.Wake(a.v, false)
	h.Wake(b.v, false)
	clock.RunUntil(5 * simtime.Millisecond)
	// One runs, the other waits on the runqueue.
	var waiter *VCPU
	if a.v.State() == StateRunnable {
		waiter = a.v
	} else {
		waiter = b.v
	}
	prio := waiter.prio
	h.Wake(waiter, true) // must be a no-op: not blocked
	if waiter.prio != prio || waiter.State() != StateRunnable {
		t.Fatal("wake of runnable vCPU changed state — breaks the VTD premise")
	}
	if h.Counters.Value("boost") != 0 {
		t.Fatal("runnable wake must not boost")
	}
	checkInvariants(t, h)
}

func TestVIPIToRunningDeliversQuickly(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	src := newComputeGuest(h, d, simtime.Second)
	dst := newIntrGuest(h, d)
	h.Start()
	h.Wake(src.v, false)
	h.Wake(dst.v, false)
	clock.RunUntil(time5ms())
	if dst.v.State() != StateRunning {
		t.Fatal("dst should be running on the second pCPU")
	}
	sendAt := clock.Now()
	h.SendVIPI(src.v, dst.v, VecResched, 7)
	clock.RunUntil(sendAt + 10*simtime.Microsecond)
	if len(dst.intrs) != 1 || dst.intrs[0] != VecResched {
		t.Fatalf("intrs=%v", dst.intrs)
	}
	if lat := dst.intrAt[0] - sendAt; lat != h.Cfg.IPILatency {
		t.Fatalf("delivery latency %v, want %v", lat, h.Cfg.IPILatency)
	}
}

func time5ms() simtime.Time { return 5 * simtime.Millisecond }

func TestVIPIToRunnableIsDeferred(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	src := newComputeGuest(h, d, simtime.Second)
	dst := newIntrGuest(h, d)
	h.Start()
	h.Wake(src.v, false)
	h.Wake(dst.v, false) // queued behind src on the single pCPU
	clock.RunUntil(time5ms())
	if dst.v.State() != StateRunnable {
		t.Fatalf("dst state %v, want runnable", dst.v.State())
	}
	sendAt := clock.Now()
	h.SendVIPI(src.v, dst.v, VecCallFunc, 0)
	clock.RunUntil(sendAt + simtime.Millisecond)
	if len(dst.intrs) != 0 {
		t.Fatal("deferred IPI delivered while target not scheduled")
	}
	if h.Counters.Value("irq.deferred") != 1 {
		t.Fatal("deferral not counted")
	}
	// After the 30ms slice of src expires, dst runs and drains the IPI.
	clock.RunUntil(40 * simtime.Millisecond)
	if len(dst.intrs) != 1 {
		t.Fatalf("pending IPI not drained on dispatch: %v", dst.intrs)
	}
	if dst.intrAt[0] < 30*simtime.Millisecond {
		t.Fatalf("IPI delivered at %v, before the scheduling turn", dst.intrAt[0])
	}
	checkInvariants(t, h)
}

func TestVIPIToBlockedWakesWithBoost(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	src := newComputeGuest(h, d, simtime.Second)
	dst := newIntrGuest(h, d)
	h.Start()
	h.Wake(src.v, false)
	clock.RunUntil(time5ms())
	if dst.v.State() != StateBlocked {
		t.Fatal("dst should still be blocked")
	}
	sendAt := clock.Now()
	h.SendVIPI(src.v, dst.v, VecResched, 0)
	clock.RunUntil(sendAt + 100*simtime.Microsecond)
	if len(dst.intrs) != 1 {
		t.Fatalf("boosted wake did not deliver promptly: %v", dst.intrs)
	}
	if h.Counters.Value("boost") == 0 {
		t.Fatal("no boost recorded")
	}
	checkInvariants(t, h)
}

func TestInjectPIRQRoutesToDesignatedVCPU(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	v0 := newIntrGuest(h, d)
	v1 := newIntrGuest(h, d)
	d.IRQVCPU = 1
	h.Start()
	h.Wake(v0.v, false)
	h.Wake(v1.v, false)
	clock.RunUntil(time5ms())
	h.InjectPIRQ(d, VecNet, 42)
	clock.RunUntil(clock.Now() + 100*simtime.Microsecond)
	if len(v1.intrs) != 1 || v1.intrs[0] != VecNet {
		t.Fatalf("designated vCPU intrs=%v", v1.intrs)
	}
	if len(v0.intrs) != 0 {
		t.Fatal("IRQ leaked to the wrong vCPU")
	}
	if h.Counters.Value("virq.sent") != 1 || h.Counters.Value("pirq") != 1 {
		t.Fatal("pirq/virq counters wrong")
	}
}

func TestCrossDomainIPIPanics(t *testing.T) {
	clock, h := setup(2)
	d1 := h.NewDomain("a", nil)
	d2 := h.NewDomain("b", nil)
	g1 := newIntrGuest(h, d1)
	g2 := newIntrGuest(h, d2)
	h.Start()
	_ = clock
	defer func() {
		if recover() == nil {
			t.Fatal("cross-domain IPI did not panic")
		}
	}()
	h.SendVIPI(g1.v, g2.v, VecResched, 0)
}

func TestMicroPoolMigration(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	hog := newComputeGuest(h, d, simtime.Second)
	victim := newComputeGuest(h, d, simtime.Second)
	h.Start()
	// Both on pCPU 0; pCPU 1 moves to the micro pool.
	hog.v.Pin(0)
	victim.v.Pin(0)
	h.Wake(hog.v, false)
	h.Wake(victim.v, false)
	if n := h.SetMicroCount(1); n != 1 {
		t.Fatalf("micro count %d", n)
	}
	clock.RunUntil(time5ms())
	if victim.v.State() != StateRunnable {
		t.Fatalf("victim %v, want runnable behind hog", victim.v.State())
	}
	if !h.MigrateToMicro(victim.v) {
		t.Fatal("migration refused")
	}
	if victim.v.State() != StateRunning || !victim.v.OnMicro() {
		t.Fatalf("victim not running on micro: %v onMicro=%v", victim.v.State(), victim.v.OnMicro())
	}
	// After one 0.1ms micro slice the vCPU returns home.
	clock.RunUntil(clock.Now() + 200*simtime.Microsecond)
	if victim.v.OnMicro() {
		t.Fatal("vCPU stayed on micro pool after its slice")
	}
	if victim.v.MicroVisits() != 1 {
		t.Fatalf("microVisits=%d", victim.v.MicroVisits())
	}
	if h.Counters.Value("migrate.home") == 0 {
		t.Fatal("migrate.home not counted")
	}
	checkInvariants(t, h)
}

func TestMicroRunqueueLimit(t *testing.T) {
	clock, h := setup(4)
	d := h.NewDomain("vm", nil)
	var guests []*computeGuest
	for i := 0; i < 4; i++ {
		g := newComputeGuest(h, d, simtime.Second)
		g.v.Pin(0)
		guests = append(guests, g)
	}
	h.Start()
	for _, g := range guests {
		h.Wake(g.v, false)
	}
	h.SetMicroCount(1)
	clock.RunUntil(time5ms())
	// guests[0] runs on p0; 1..3 queued. Micro pool has one pCPU, limit 1:
	// first migration dispatches, second queues, third must fail.
	if !h.MigrateToMicro(guests[1].v) {
		t.Fatal("first migration failed")
	}
	if !h.MigrateToMicro(guests[2].v) {
		t.Fatal("second migration (runqueue slot) failed")
	}
	if h.MigrateToMicro(guests[3].v) {
		t.Fatal("third migration should exceed the runqueue limit")
	}
	if h.Counters.Value("migrate.micro_full") != 1 {
		t.Fatal("micro_full not counted")
	}
	checkInvariants(t, h)
}

func TestMigrateToMicroRefusesRunning(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	g := newComputeGuest(h, d, simtime.Second)
	h.Start()
	h.Wake(g.v, false)
	h.SetMicroCount(1)
	clock.RunUntil(time5ms())
	if g.v.State() != StateRunning {
		t.Fatal("guest should be running")
	}
	if h.MigrateToMicro(g.v) {
		t.Fatal("migration of a running vCPU must be refused")
	}
}

func TestMigrateBlockedToMicroWakes(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	g := newIntrGuest(h, d)
	h.Start()
	h.SetMicroCount(1)
	clock.RunUntil(simtime.Millisecond)
	if g.v.State() != StateBlocked {
		t.Fatal("guest should be blocked")
	}
	if !h.MigrateToMicro(g.v) {
		t.Fatal("migration of blocked vCPU failed")
	}
	if g.v.State() != StateRunning || !g.v.OnMicro() {
		t.Fatalf("state=%v onMicro=%v", g.v.State(), g.v.OnMicro())
	}
	checkInvariants(t, h)
}

func TestGrowShrinkMicro(t *testing.T) {
	clock, h := setup(4)
	d := h.NewDomain("vm", nil)
	for i := 0; i < 6; i++ {
		g := newComputeGuest(h, d, simtime.Second)
		h.Wake(g.v, false)
	}
	h.Start()
	clock.RunUntil(time5ms())
	if !h.GrowMicro() || !h.GrowMicro() {
		t.Fatal("grow failed")
	}
	if h.MicroCount() != 2 || h.NormalPool().Size() != 2 {
		t.Fatalf("micro=%d normal=%d", h.MicroCount(), h.NormalPool().Size())
	}
	checkInvariants(t, h)
	clock.RunUntil(clock.Now() + time5ms())
	if !h.ShrinkMicro() {
		t.Fatal("shrink failed")
	}
	if h.MicroCount() != 1 || h.NormalPool().Size() != 3 {
		t.Fatalf("after shrink micro=%d normal=%d", h.MicroCount(), h.NormalPool().Size())
	}
	checkInvariants(t, h)
	h.SetMicroCount(0)
	if h.MicroCount() != 0 || h.NormalPool().Size() != 4 {
		t.Fatal("SetMicroCount(0) failed")
	}
	checkInvariants(t, h)
}

func TestGrowMicroKeepsOneNormalPCPU(t *testing.T) {
	clock, h := setup(2)
	h.Start()
	_ = clock
	if !h.GrowMicro() {
		t.Fatal("first grow should succeed")
	}
	if h.GrowMicro() {
		t.Fatal("grow must not empty the normal pool")
	}
	if h.NormalPool().Size() != 1 {
		t.Fatalf("normal=%d", h.NormalPool().Size())
	}
}

func TestGrowMicroAvoidsPinnedPCPU(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	g := newComputeGuest(h, d, simtime.Second)
	g.v.Pin(1)
	h.Start()
	h.Wake(g.v, false)
	clock.RunUntil(simtime.Millisecond)
	if !h.GrowMicro() {
		t.Fatal("grow failed")
	}
	// pCPU 1 carries the pinned vCPU, so pCPU 0 must have been taken.
	for _, p := range h.micro.PCPUs() {
		if p.ID == 1 {
			t.Fatal("grow stole the pinned pCPU")
		}
	}
	if h.Counters.Value("pin.violated") != 0 {
		t.Fatal("pin violated")
	}
	checkInvariants(t, h)
}

func TestPinningRespected(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	a := newComputeGuest(h, d, 200*simtime.Millisecond)
	b := newComputeGuest(h, d, 200*simtime.Millisecond)
	a.v.Pin(0)
	b.v.Pin(0)
	h.Start()
	h.Wake(a.v, false)
	h.Wake(b.v, false)
	clock.RunUntil(450 * simtime.Millisecond)
	if !a.done || !b.done {
		t.Fatal("pinned guests did not finish")
	}
	// 400ms of combined work on one pCPU: must take at least 400ms even
	// though pCPU 1 idles the whole time (pinning prevented stealing).
	if a.doneAt < 390*simtime.Millisecond && b.doneAt < 390*simtime.Millisecond {
		t.Fatalf("doneAt a=%v b=%v — work leaked to the other pCPU", a.doneAt, b.doneAt)
	}
	if h.PCPU(1).Busy() != 0 {
		t.Fatalf("pCPU1 busy %v, want 0", h.PCPU(1).Busy())
	}
}

func TestWorkStealingSpreadsLoad(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	a := newComputeGuest(h, d, 50*simtime.Millisecond)
	b := newComputeGuest(h, d, 50*simtime.Millisecond)
	// Both initially placed on pCPU 0 (affinity hints collide).
	a.v.lastPCPU = 0
	b.v.lastPCPU = 0
	h.Start()
	h.Wake(a.v, false)
	h.Wake(b.v, false)
	clock.RunUntil(200 * simtime.Millisecond)
	if !a.done || !b.done {
		t.Fatal("guests did not finish")
	}
	// With stealing, both finish around 50ms; without, the loser needs 100ms+.
	if a.doneAt > 80*simtime.Millisecond || b.doneAt > 80*simtime.Millisecond {
		t.Fatalf("doneAt a=%v b=%v — stealing failed", a.doneAt, b.doneAt)
	}
	if h.Counters.Value("sched.steal") == 0 {
		t.Fatal("no steals recorded")
	}
}

func TestCreditFairnessUnderOvercommit(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	var hogs []*computeGuest
	for i := 0; i < 4; i++ {
		hogs = append(hogs, newComputeGuest(h, d, 10*simtime.Second))
	}
	h.Start()
	for _, g := range hogs {
		h.Wake(g.v, false)
	}
	clock.RunUntil(simtime.Second)
	// Four always-runnable vCPUs share one pCPU: each must get ~250ms.
	for i, g := range hogs {
		ran := g.v.RanTotal()
		if g.v.State() == StateRunning {
			ran += clock.Now() - g.v.runningSince
		}
		if ran < 150*simtime.Millisecond || ran > 350*simtime.Millisecond {
			t.Errorf("hog %d ran %v, want ~250ms", i, ran)
		}
		if g.scheds < 5 {
			t.Errorf("hog %d scheduled only %d times", i, g.scheds)
		}
	}
	checkInvariants(t, h)
}

func TestHookOnYieldFires(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	spin := newSpinGuest(h, d, 25*simtime.Microsecond)
	var hooked int
	var hookedReason YieldReason
	h.Hooks.OnYield = func(v *VCPU, reason YieldReason) {
		hooked++
		hookedReason = reason
	}
	h.Start()
	h.Wake(spin.v, false)
	clock.RunUntil(simtime.Millisecond)
	if hooked == 0 || hookedReason != YieldPLE {
		t.Fatalf("hooked=%d reason=%v", hooked, hookedReason)
	}
}

func TestHookRelaysFire(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	a := newIntrGuest(h, d)
	b := newIntrGuest(h, d)
	var virqs, vipis int
	h.Hooks.OnVIRQRelay = func(target *VCPU) { virqs++ }
	h.Hooks.OnVIPIRelay = func(src, target *VCPU, vec Vector) { vipis++ }
	h.Start()
	h.Wake(a.v, false)
	h.Wake(b.v, false)
	clock.RunUntil(simtime.Millisecond)
	h.SendVIPI(a.v, b.v, VecResched, 0)
	h.InjectPIRQ(d, VecNet, 0)
	clock.RunUntil(clock.Now() + simtime.Millisecond)
	if vipis != 1 || virqs != 1 {
		t.Fatalf("vipis=%d virqs=%d", vipis, virqs)
	}
}

func TestRanTotalAccounting(t *testing.T) {
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	g := newComputeGuest(h, d, 10*simtime.Millisecond)
	h.Start()
	h.Wake(g.v, false)
	clock.RunUntil(simtime.Second)
	if g.v.RanTotal() != 10*simtime.Millisecond {
		t.Fatalf("ranTotal=%v, want 10ms", g.v.RanTotal())
	}
	if h.PCPU(0).Busy() != 10*simtime.Millisecond {
		t.Fatalf("busy=%v", h.PCPU(0).Busy())
	}
}

func TestManyVCPUsInvariantsUnderChurn(t *testing.T) {
	clock, h := setup(4)
	d1 := h.NewDomain("vm1", nil)
	d2 := h.NewDomain("vm2", nil)
	var all []*VCPU
	for i := 0; i < 8; i++ {
		s := newSpinGuest(h, d1, simtime.Duration(10+i)*simtime.Microsecond)
		all = append(all, s.v)
	}
	for i := 0; i < 8; i++ {
		c := newComputeGuest(h, d2, simtime.Duration(20+i)*simtime.Millisecond)
		all = append(all, c.v)
	}
	h.Start()
	for _, v := range all {
		h.Wake(v, false)
	}
	// Interleave pool churn with execution, checking invariants throughout.
	for step := 0; step < 40; step++ {
		clock.RunUntil(clock.Now() + 7*simtime.Millisecond)
		switch step % 4 {
		case 0:
			h.GrowMicro()
		case 1:
			for _, v := range all {
				if v.State() == StateRunnable && !v.OnMicro() {
					h.MigrateToMicro(v)
					break
				}
			}
		case 2:
			h.ShrinkMicro()
		case 3:
			h.SetMicroCount(2)
		}
		checkInvariants(t, h)
	}
	h.SetMicroCount(0)
	checkInvariants(t, h)
}

func TestStartTwicePanics(t *testing.T) {
	_, h := setup(1)
	h.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	h.Start()
}

func TestStringers(t *testing.T) {
	if PrioBoost.String() != "BOOST" || PrioUnder.String() != "UNDER" ||
		PrioOver.String() != "OVER" || Priority(9).String() != "IDLE" {
		t.Fatal("Priority.String broken")
	}
	if StateBlocked.String() != "blocked" || StateRunning.String() != "running" ||
		StateRunnable.String() != "runnable" {
		t.Fatal("VCPUState.String broken")
	}
	if YieldPLE.String() != "ple" || YieldIPIWait.String() != "ipi" ||
		YieldHalt.String() != "halt" || YieldOther.String() != "other" {
		t.Fatal("YieldReason.String broken")
	}
	for _, v := range []Vector{VecResched, VecCallFunc, VecNet, VecTimer, Vector(99)} {
		if v.String() == "" {
			t.Fatal("Vector.String broken")
		}
	}
}
