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
	preempts := h.hot.preempt.Value()
	due := clock.Now() + h.Cfg.MicroSlice
	clock.RunUntil(due - 1)
	if a.v.pcpu != p1 || h.hot.preempt.Value() != preempts {
		t.Fatal("micro slice expired early")
	}
	clock.RunUntil(due)
	if h.hot.preempt.Value() != preempts+1 || a.v.pcpu == p1 {
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

func newPLEGuest(h *Hypervisor, d *Domain) *pleGuest {
	g := &pleGuest{h: h}
	h.Clock.Bind(&g.ev, "ple", func() {
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
		dispatches := h.hot.dispatch.Value()
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Errorf("behind=%v: %v allocs per yield and re-dispatch, want 0", behind, allocs)
		}
		if n := h.hot.dispatch.Value() - dispatches; n != 1001 {
			t.Fatalf("behind=%v: %d dispatches over 1001 cycles", behind, n)
		}
		if over != nil && (over.queuedOn != p || over.prio != PrioOver) {
			t.Fatalf("OVER vCPU left its place behind the yielder: %v on %v", over, over.queuedOn)
		}
	}
}

// TestRedispatchUnparksLikeEnqueue: a yield re-dispatched in place re-arms
// a parked sibling's tick exactly as the requeue through enqueue does, at
// the same instant on the sibling's stagger grid. The requeue side is
// forced by a no-op OnYield hook.
func TestRedispatchUnparksLikeEnqueue(t *testing.T) {
	rearm := func(regular bool) (simtime.Time, int) {
		clock, h := setup(2)
		g := newPLEGuest(h, h.NewDomain("vm", nil)) // runs on p0
		inPlace := 0
		h.CheckPick = func(p *PCPU, requeued, got *VCPU) {
			if requeued != nil && got == requeued {
				inPlace++
			}
		}
		if regular {
			h.Hooks.OnYield = func(*VCPU, YieldReason) {}
		}
		h.Start()
		h.Wake(g.v, false)
		p1 := h.pcpus[1]
		clock.RunUntil(h.Cfg.Tick + 1) // p1's first tick found nothing to run
		if !p1.parked || p1.tick.Pending() {
			t.Fatalf("regular=%v: idle p1 did not park (parked %v, tick armed %v)", regular, p1.parked, p1.tick.Pending())
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
	if fast == 0 || slow != 0 {
		t.Fatalf("%d in-place re-dispatches with no hook, %d with OnYield set", fast, slow)
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
