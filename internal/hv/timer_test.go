package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// A pCPU that ran a vCPU with a 30 ms slice and then joined the micro pool
// must preempt its next vCPU 0.1 ms after dispatch. The stopped 30 ms
// slice timer left its entry queued in the far tier, so this is the timer
// re-keying a later entry to an earlier deadline.
func TestMicroSliceAfterNormalSlice(t *testing.T) {
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	b := newComputeGuest(h, d, simtime.Second) // lastPCPU hint p0
	a := newComputeGuest(h, d, simtime.Second) // lastPCPU hint p1
	h.Start()
	h.Wake(b.v, false)
	h.Wake(a.v, false)
	clock.RunUntil(5 * simtime.Millisecond)
	p1 := h.pcpus[1]
	if a.v.pcpu != p1 || b.v.pcpu != h.pcpus[0] {
		t.Fatalf("a on %v, b on %v: want p1 and p0", a.v.pcpu, b.v.pcpu)
	}
	queued := clock.Pending()
	if !h.GrowMicro() || p1.pool != h.micro {
		t.Fatal("p1 did not join the micro pool")
	}
	// The preemption cancels a's completion event; the stopped slice
	// entry stays in the far tier.
	if clock.Pending() != queued-1 {
		t.Fatalf("%d events queued after the preemption, want %d", clock.Pending(), queued-1)
	}
	if a.v.state != StateRunnable || !h.MigrateToMicro(a.v) || a.v.pcpu != p1 {
		t.Fatal("a was not re-dispatched on the micro pCPU")
	}
	preempts := h.Counters.Value("sched.preempt")
	due := clock.Now() + h.Cfg.MicroSlice
	clock.RunUntil(due - 1)
	if a.v.pcpu != p1 || h.Counters.Value("sched.preempt") != preempts {
		t.Fatal("micro slice expired early")
	}
	clock.RunUntil(due)
	if h.Counters.Value("sched.preempt") != preempts+1 || a.v.pcpu == p1 {
		t.Fatalf("no preemption at %v, 0.1 ms after the micro dispatch", due)
	}
}

// pleGuest PLE-yields a fixed time after every dispatch, through its own
// owned event.
type pleGuest struct {
	h      *Hypervisor
	v      *VCPU
	ev     simtime.Event
	yields int
}

var kindTestPLE = simtime.NewKind("test-ple")

func newPLEGuest(h *Hypervisor, d *Domain) *pleGuest {
	g := &pleGuest{h: h}
	h.Clock.Bind(&g.ev, kindTestPLE, func() {
		g.yields++
		g.h.Yield(g.v, YieldPLE)
	})
	g.v = h.AddVCPU(d, g)
	return g
}

func (g *pleGuest) OnScheduled(simtime.Time)                 { g.ev.Arm(20 * simtime.Microsecond) }
func (g *pleGuest) OnDescheduled(simtime.Time)               { g.ev.Cancel() }
func (g *pleGuest) OnInterrupt(simtime.Time, Vector, uint64) {}
func (g *pleGuest) RIP() uint64                              { return 0xffffffff81000000 }

// TestYieldRedispatchAllocFree: the yield storm's cycle — a PLE yield stops
// the slice timer, the pCPU re-dispatches the same vCPU in place and sets
// the slice timer again — allocates nothing, alone on its pCPU or with an
// OVER vCPU queued behind it.
func TestYieldRedispatchAllocFree(t *testing.T) {
	for _, behind := range []bool{false, true} {
		clock, h := setup(1)
		d := h.NewDomain("vm", nil)
		g := newPLEGuest(h, d)
		var over *VCPU
		if behind {
			over = newIntrGuest(h, d).v
			over.credits = -h.Cfg.CreditDebitPerTick
		}
		h.Start()
		h.Wake(g.v, false)
		if over != nil {
			h.Wake(over, false)
		}
		clock.RunUntil(simtime.Millisecond)
		p := h.pcpus[0]
		cycle := func() {
			yields := g.yields
			clock.RunUntil(clock.Now() + 20*simtime.Microsecond)
			if g.yields != yields+1 || g.v.pcpu != p || !p.slice.Pending() {
				t.Fatalf("behind=%v: %d yields, vCPU on %v, slice armed %v", behind, g.yields-yields, g.v.pcpu, p.slice.Pending())
			}
		}
		dispatches := h.Counters.Value("sched.dispatch")
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("behind=%v: %v allocs per yield and re-dispatch, want 0", behind, allocs)
		}
		if n := h.Counters.Value("sched.dispatch") - dispatches; n != 1001 {
			t.Fatalf("behind=%v: %d dispatches over 1001 cycles", behind, n)
		}
		if over != nil && (over.queuedOn != p || over.prio != PrioOver) {
			t.Fatalf("OVER vCPU left its place behind the yielder: %v on %v", over, over.queuedOn)
		}
	}
}

// TestRedispatchUnparksLikeEnqueue: a yield re-dispatched in place re-arms
// a parked sibling's tick exactly as the requeue through enqueue does, at
// the same instant on the sibling's stagger grid. Both runs queue an OVER
// vCPU pinned to p0 behind the yielder, which p1 may not steal, so p1
// parks. The requeue run boosts it just before the measured yield: a
// queued vCPU better than the yielder forces the enqueue → pickNext path.
func TestRedispatchUnparksLikeEnqueue(t *testing.T) {
	rearm := func(regular bool) (simtime.Time, bool) {
		clock, h := setup(2)
		d := h.NewDomain("vm", nil)
		g := newPLEGuest(h, d) // runs on p0
		w := newIntrGuest(h, d).v
		w.Pin(0)
		w.credits = -h.Cfg.CreditDebitPerTick
		inPlace := false
		h.CheckPick = func(p *PCPU, requeued, got *VCPU) {
			if requeued != nil {
				inPlace = got == requeued
			}
		}
		h.Start()
		h.Wake(g.v, false)
		h.Wake(w, false)
		p0, p1 := h.pcpus[0], h.pcpus[1]
		clock.RunUntil(h.Cfg.Tick + 1) // p1's first tick found nothing to run
		if !p1.parked || p1.tick.Pending() {
			t.Fatalf("regular=%v: idle p1 did not park (parked %v, tick armed %v)", regular, p1.parked, p1.tick.Pending())
		}
		if g.v.pcpu != p0 || w.queuedOn != p0 || w.prio != PrioOver {
			t.Fatalf("regular=%v: yielder on %v, pinned vCPU %v queued on %v", regular, g.v.pcpu, w, w.queuedOn)
		}
		if regular {
			w.prio, w.boosted = PrioBoost, true
			resortRunq(p0)
		}
		for yields := g.yields; g.yields == yields; {
			clock.Step()
		}
		if p1.parked || !p1.tick.Pending() {
			t.Fatalf("regular=%v: the yield left p1 parked", regular)
		}
		verifyIndex(t, h, "after the unparking yield")
		return p1.tick.When(), inPlace
	}
	fastAt, fast := rearm(false)
	slowAt, slow := rearm(true)
	if !fast || slow {
		t.Fatalf("measured yield re-dispatched in place: %v behind an OVER vCPU, %v behind a boosted one", fast, slow)
	}
	if fastAt != slowAt {
		t.Fatalf("in-place re-dispatch re-armed p1's tick at %v, the requeue at %v", fastAt, slowAt)
	}
	if want := 2 * simtime.Time(testConfig(2).Tick); fastAt != want {
		t.Fatalf("p1's tick re-armed at %v, want %v on its grid", fastAt, want)
	}
}

// burnCredits against its closed form: credits -= total / nsPerCredit and
// debt = total % nsPerCredit, where total is the runtime since the last
// charge plus the carried debt, clamped at CreditFloor.
func TestBurnCredits(t *testing.T) {
	_, h := setup(1)
	npc := h.nsPerCredit
	if npc != int64(h.Cfg.Tick)/int64(h.Cfg.CreditDebitPerTick) {
		t.Fatalf("nsPerCredit %d", npc)
	}
	floor := h.Cfg.CreditFloor
	cases := []struct {
		name                  string
		credits               int
		ran, debt             int64
		wantCredits, wantDebt int
	}{
		{"below one credit", 100, npc - 1, 0, 100, int(npc - 1)},
		{"exactly one credit", 100, npc, 0, 99, 0},
		{"many credits", 100, 7*npc + npc/2, 0, 93, int(npc / 2)},
		{"debt tips over one credit", 100, npc / 2, npc/2 + 1, 99, 1},
		{"debt stays below one credit", 100, 10, 20, 100, 30},
		{"nothing ran", 100, 0, 5, 100, 5},
		{"floor clamp", floor + 2, 5 * npc, 0, floor, 0},
		{"below one credit at the floor", floor, npc - 1, 0, floor, int(npc - 1)},
	}
	v := h.AddVCPU(h.NewDomain("vm", nil), &intrGuest{})
	now := simtime.Time(0)
	for _, c := range cases {
		now += simtime.Second
		h.Clock.RunUntil(now)
		v.credits, v.debtNs, v.burnAt = c.credits, c.debt, now-simtime.Duration(c.ran)
		total := c.ran + c.debt
		closed := max(c.credits-int(total/npc), floor)
		h.burnCredits(v)
		if v.credits != c.wantCredits || v.debtNs != int64(c.wantDebt) || v.burnAt != now {
			t.Errorf("%s: credits %d debt %d burnAt %v, want %d, %d, %v",
				c.name, v.credits, v.debtNs, v.burnAt, c.wantCredits, c.wantDebt, now)
		}
		if v.credits != closed || v.debtNs != total%npc {
			t.Errorf("%s: credits %d debt %d, closed form %d, %d", c.name, v.credits, v.debtNs, closed, total%npc)
		}
	}
}

// Hooks.TickJitter shifts every scheduler-tick and accounting arm: the
// first ones at Start, a tick's and the accounting's re-arms, and the
// re-arm of a parked tick on its stagger grid.
func TestTickJitterShiftsTickAndAcctArms(t *testing.T) {
	const ms = simtime.Millisecond
	clock, h := setup(2)
	h.Hooks.TickJitter = func(d simtime.Duration) simtime.Duration { return d + ms }
	d := h.NewDomain("vm", nil)
	a := newComputeGuest(h, d, simtime.Second)
	b := newComputeGuest(h, d, simtime.Second)
	p0, p1 := h.pcpus[0], h.pcpus[1]
	h.Start()
	// Nominal first ticks at 5 ms (p0) and 10 ms (p1), accounting at 30 ms.
	if p0.tick.When() != 6*ms || p1.tick.When() != 11*ms || h.acct.When() != 31*ms {
		t.Fatalf("first arms at %v, %v and %v, want 6, 11 and 31 ms", p0.tick.When(), p1.tick.When(), h.acct.When())
	}
	h.Wake(a.v, false)
	clock.RunUntil(6 * ms)
	if a.v.pcpu != p0 || p0.tick.When() != 17*ms {
		t.Fatalf("a on %v, p0 tick re-armed for %v: want p0 and 17 ms", a.v.pcpu, p0.tick.When())
	}
	clock.RunUntil(11 * ms)
	if !p1.parked {
		t.Fatal("idle p1 did not park its tick")
	}
	clock.RunUntil(12 * ms)
	h.Wake(b.v, false)
	// The grid puts p1's next tick at 20 ms.
	if b.v.pcpu != p1 || p1.parked || p1.tick.When() != 21*ms {
		t.Fatalf("b on %v, p1 tick re-armed for %v: want p1 and 21 ms", b.v.pcpu, p1.tick.When())
	}
	clock.RunUntil(31 * ms)
	if h.acct.When() != 62*ms {
		t.Fatalf("accounting re-armed for %v, want 62 ms", h.acct.When())
	}
}

// interruptedRun runs two vCPUs on one pCPU under jitter and reports when
// the first one started (the context-switch timer), when the first slice
// ran out (the slice timer) and when a physical IRQ sent at 5 ms reached
// the running vCPU (the PIRQ and injection timers).
func interruptedRun(jitter func(simtime.Duration) simtime.Duration) (start, preempt, intr simtime.Time) {
	clock, h := setup(1)
	h.Hooks.TickJitter = jitter
	d := h.NewDomain("vm", nil)
	a, b := newIntrGuest(h, d), newIntrGuest(h, d)
	h.Start()
	h.Wake(a.v, false)
	h.Wake(b.v, false)
	for !a.running && clock.Step() {
	}
	start = clock.Now()
	clock.At(5*simtime.Millisecond, func() { h.InjectPIRQTo(a.v, 0x20, 0) })
	for h.Counters.Value("sched.preempt") == 0 && clock.Step() {
	}
	preempt = clock.Now()
	if len(a.intrAt) == 1 {
		intr = a.intrAt[0]
	}
	return start, preempt, intr
}

// The context-switch, slice, PIRQ and injection timers ignore TickJitter.
func TestTickJitterSparesOtherTimers(t *testing.T) {
	s0, p0, i0 := interruptedRun(nil)
	s1, p1, i1 := interruptedRun(func(d simtime.Duration) simtime.Duration { return d + simtime.Millisecond })
	if i0 == 0 {
		t.Fatal("the physical IRQ never reached the running vCPU")
	}
	if s1 != s0 || p1 != p0 || i1 != i0 {
		t.Fatalf("start/preempt/interrupt at %v/%v/%v under jitter, %v/%v/%v without", s1, p1, i1, s0, p0, i0)
	}
}

// A jittered delay below zero fires at once instead of panicking.
func TestTickJitterNegativeFiresAtOnce(t *testing.T) {
	clock, h := setup(1)
	first := true
	h.Hooks.TickJitter = func(d simtime.Duration) simtime.Duration {
		if first {
			first = false
			return d - simtime.Second
		}
		return d
	}
	h.Start()
	p := h.pcpus[0]
	if p.tick.When() != 0 {
		t.Fatalf("tick armed for %v, want now", p.tick.When())
	}
	clock.Step()
	if clock.Now() != 0 || !p.parked {
		t.Fatalf("tick fired at %v (parked %v), want at once on the idle pCPU", clock.Now(), p.parked)
	}
}
