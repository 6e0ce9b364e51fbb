package hv

import (
	"fmt"
	"math/bits"

	"github.com/microslicedcore/microsliced/internal/simtime"

	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// ---------------------------------------------------------------------------
// Runqueue helpers
// ---------------------------------------------------------------------------

// enqueue inserts v at the tail of its priority class on p's runqueue.
// Queued work may be stealable by any pool sibling, so every parked tick in
// the pool re-arms here (each either finds the work at its next tick or
// parks again).
func (h *Hypervisor) enqueue(p *PCPU, v *VCPU) {
	if v.queuedOn != nil {
		panic(fmt.Sprintf("hv: %v already queued", v))
	}
	if v.state != StateRunnable {
		panic(fmt.Sprintf("hv: enqueue of %v in state %v", v, v.state))
	}
	// Insert from the tail: shift every strictly worse vCPU up one slot.
	q := append(p.runq, nil)
	i := len(q) - 1
	for ; i > 0 && q[i-1].prio > v.prio; i-- {
		q[i] = q[i-1]
	}
	q[i] = v
	p.runq = q
	v.queuedOn = p
	pl := p.pool
	if i == 0 {
		// v is the new head: move p's head bit from the old head's class.
		bit := uint64(1) << uint(p.slot)
		if len(q) > 1 {
			pl.heads[q[1].prio] &^= bit
		}
		pl.heads[v.prio] |= bit
	}
	if pl.parkedMask != 0 {
		h.unparkPool(pl)
	}
}

// dequeue removes v from the runqueue it is on.
func (h *Hypervisor) dequeue(v *VCPU) {
	p := v.queuedOn
	if p == nil {
		return
	}
	q := p.runq
	i := 0
	for i < len(q) && q[i] != v {
		i++
	}
	if i == len(q) {
		panic(fmt.Sprintf("hv: %v marked queued on p%d but absent", v, p.ID))
	}
	last := len(q) - 1
	for j := i; j < last; j++ {
		q[j] = q[j+1]
	}
	q[last] = nil
	p.runq = q[:last]
	v.queuedOn = nil
	if i == 0 {
		// v was the head: move p's head bit to the new head's class.
		pl, bit := p.pool, uint64(1)<<uint(p.slot)
		pl.heads[v.prio] &^= bit
		if last > 0 {
			pl.heads[q[0].prio] |= bit
		}
	}
}

// resortRunq re-sorts a non-empty runqueue after priorities changed in
// place (stable insertion sort: runqueues are short) and rewrites p's
// head-mask bit, whatever class held it before.
func resortRunq(p *PCPU) {
	q := p.runq
	for i := 1; i < len(q); i++ {
		v := q[i]
		j := i - 1
		for j >= 0 && q[j].prio > v.prio {
			q[j+1] = q[j]
			j--
		}
		q[j+1] = v
	}
	pl, bit := p.pool, uint64(1)<<uint(p.slot)
	for k := range pl.heads {
		pl.heads[k] &^= bit
	}
	pl.heads[q[0].prio] |= bit
}

func (v *VCPU) canRunOn(p *PCPU) bool {
	if v.pool != p.pool {
		return false
	}
	// Pinning applies only within the home pool; the micro pool is an
	// explicit override (the mechanism migrates across pools regardless).
	if v.pool == v.homePool && v.pin >= 0 && v.pin != p.ID {
		return false
	}
	return true
}

// homePCPU picks the pCPU of v's current pool to queue v on: the pinned
// pCPU, else the last-run pCPU if still in the pool, else the least-loaded.
func (h *Hypervisor) homePCPU(v *VCPU) *PCPU {
	pool := v.pool
	if len(pool.pcpus) == 0 {
		panic("hv: pool " + pool.Name + " has no pCPUs")
	}
	if v.pool == v.homePool && v.pin >= 0 {
		for _, p := range pool.pcpus {
			if p.ID == v.pin {
				return p
			}
		}
	}
	for _, p := range pool.pcpus {
		if p.ID == v.lastPCPU {
			return p
		}
	}
	// Least-loaded scan. When some member is fully idle (no current vCPU,
	// empty runqueue — load 0), the first such slot is the answer and the
	// occupancy masks find it in one step; ties on load 0 resolve to the
	// lowest slot exactly as the scan below would.
	if free := ^(pool.occupied() | pool.busyMask) & pool.memberMask(); free != 0 {
		return pool.pcpus[bits.TrailingZeros64(free)]
	}
	best := pool.pcpus[0]
	bestLoad := loadOf(best)
	for _, p := range pool.pcpus[1:] {
		if l := loadOf(p); l < bestLoad {
			best, bestLoad = p, l
		}
	}
	return best
}

func loadOf(p *PCPU) int {
	l := len(p.runq)
	if p.cur != nil {
		l++
	}
	return l
}

// ---------------------------------------------------------------------------
// Dispatch / deschedule
// ---------------------------------------------------------------------------

// setRunnable transitions v to Runnable, stamping the start of its wait so
// the invariant auditor can detect starvation. Requeues of an
// already-runnable vCPU (pool migration, re-pinning) keep the original
// stamp: moving between queues does not end the wait.
func (h *Hypervisor) setRunnable(v *VCPU) {
	if v.state != StateRunnable {
		v.runnableSince = h.Clock.Now()
		if h.Obs != nil {
			h.Obs.Transition(v.ID, obs.StateRunnable, h.Clock.Now())
		}
	}
	v.state = StateRunnable
}

// schedule picks and dispatches the next vCPU for an idle pCPU.
func (h *Hypervisor) schedule(p *PCPU) {
	if p.cur != nil || p.offline {
		return
	}
	v := h.pickNext(p)
	if v == nil {
		return // pCPU idles; a wake or migration will restart it
	}
	h.dispatch(p, v)
}

// pickNext returns the best runnable vCPU for p, stealing from pool
// siblings when they hold strictly better work (credit1's load balancing).
// The steal scan visits, in ascending slot order (identical to walking
// pool.pcpus), only siblings whose runqueue head beats the best candidate so
// far: the head masks below that priority. The common cases — every queue
// empty, or no sibling head better than the local candidate — are one mask
// test each, without touching a sibling.
func (h *Hypervisor) pickNext(p *PCPU) *VCPU {
	pl := p.pool
	if pl.occupied() == 0 {
		if h.CheckPick != nil {
			h.CheckPick(p, nil, nil)
		}
		return nil
	}
	var pick *VCPU
	for _, cand := range p.runq {
		if cand.canRunOn(p) {
			pick = cand
			break
		}
	}
	bestPrio := PrioIdle
	if pick != nil {
		bestPrio = pick.prio
	}
	stolen := false
	if !pl.NoSteal {
		m := pl.headsBelow(bestPrio) &^ (1 << uint(p.slot))
		for m != 0 {
			q := pl.pcpus[bits.TrailingZeros64(m)]
			m &= m - 1
			for _, cand := range q.runq {
				if cand.prio >= bestPrio {
					break
				}
				if cand.canRunOn(p) {
					pick, bestPrio, stolen = cand, cand.prio, true
					m &= pl.headsBelow(bestPrio)
					break
				}
			}
		}
	}
	if h.CheckPick != nil {
		h.CheckPick(p, nil, pick)
	}
	if pick != nil {
		h.dequeue(pick)
	}
	if stolen {
		h.hot.steal.Inc()
		h.stoleNext = true
	}
	return pick
}

// dispatch puts v on p. The guest regains control after the context-switch
// cost (skipped when p re-runs the vCPU it last ran).
func (h *Hypervisor) dispatch(p *PCPU, v *VCPU) {
	if p.cur != nil {
		panic(fmt.Sprintf("hv: dispatch on busy p%d", p.ID))
	}
	if p.offline {
		panic(fmt.Sprintf("hv: dispatch on offline p%d", p.ID))
	}
	if v.state != StateRunnable || v.queuedOn != nil {
		panic(fmt.Sprintf("hv: dispatch of %v (queued=%v)", v, v.queuedOn != nil))
	}
	if !v.canRunOn(p) {
		panic(fmt.Sprintf("hv: dispatch of %v violates placement on p%d", v, p.ID))
	}
	v.state = StateRunning
	v.pcpu = p
	v.lastPCPU = p.ID
	p.cur = v
	p.pool.busyMask |= 1 << uint(p.slot)
	if p.parked {
		// Direct dispatch onto an idle pCPU (micro migration, steal during
		// a sibling's refresh): its suppressed tick must resume to burn the
		// new vCPU's credits.
		h.unparkTick(p)
	}
	stolen := h.stoleNext
	h.stoleNext = false
	if h.Obs != nil {
		now := h.Clock.Now()
		h.Obs.Transition(v.ID, obs.StateRunning, now)
		h.Obs.WakeEnd(v.ID, now)
		h.Obs.PCPUDispatched(p.ID, stolen)
	}
	h.emit(trace.KindSchedule, v, uint64(v.prio), 0)

	slice := p.pool.Slice
	if v.sliceOverride > 0 && v.pool == v.homePool {
		// Per-vCPU quantum (vTRS-style rivals); the micro pool's own
		// 0.1 ms slice always wins while a vCPU is being accelerated.
		slice = v.sliceOverride
	}
	p.slice.Set(slice)

	// Re-dispatching the vCPU the pCPU just ran is free (registers and
	// cache are warm); switching pays the direct cost plus the cache
	// refill. For 30 ms slices this is ~0.05% overhead; for a 0.1 ms
	// micro slice it is the substantive price of each migration — the
	// reason over-provisioned micro pools stop paying off (paper §6.2).
	cost := h.Cfg.CtxSwitchCost + h.Cfg.ColdCacheCost
	if p.lastRan == v {
		cost = 0
	}
	p.lastRan = v
	if cost > 0 {
		p.ctxsw.Arm(cost)
	} else {
		h.startCurrent(p)
	}
}

// startCurrent hands the pCPU's current vCPU to its guest once any
// context-switch cost has elapsed. p.cur is the vCPU this fires for:
// descheduleCurrent cancels the warmup event, so cur cannot have changed
// underneath an armed p.ctxsw.
func (h *Hypervisor) startCurrent(p *PCPU) {
	v := p.cur
	v.runningSince = h.Clock.Now()
	v.burnAt = h.Clock.Now()
	v.Guest.OnScheduled(h.Clock.Now())
	// The guest may have synchronously yielded or blocked.
	if p.cur == v {
		h.drainPending(v)
	}
}

// descheduleCurrent removes the running vCPU from p, pairing OnScheduled
// with OnDescheduled and accumulating run time. The caller decides the
// vCPU's next state.
func (h *Hypervisor) descheduleCurrent(p *PCPU) *VCPU {
	v := p.cur
	if v == nil {
		panic(fmt.Sprintf("hv: deschedule on idle p%d", p.ID))
	}
	p.slice.Stop()
	// A pending warmup means the guest never actually started: no
	// OnDescheduled.
	if !p.ctxsw.Cancel() {
		ran := h.Clock.Now() - v.runningSince
		v.ranTotal += ran
		p.busy += ran
		if h.Obs != nil {
			h.Obs.PCPURan(p.ID, ran)
		}
		h.burnCredits(v)
		v.Guest.OnDescheduled(h.Clock.Now())
	}
	// Boost lasts only until the vCPU is descheduled.
	v.boosted = false
	v.prio = v.basePrio()
	v.pcpu = nil
	p.cur = nil
	p.pool.busyMask &^= 1 << uint(p.slot)
	return v
}

func (v *VCPU) basePrio() Priority {
	if v.credits > 0 {
		return PrioUnder
	}
	return PrioOver
}

// requeuePreempted places a just-descheduled runnable vCPU: back on its
// pool's home when leaving the micro pool, on a placement-compatible pCPU
// when its pinning changed, else locally at the tail.
func (h *Hypervisor) requeuePreempted(p *PCPU, v *VCPU) {
	switch {
	case v.pool.ReturnHome && v.pool != v.homePool:
		h.sendHome(v)
	case !v.canRunOn(p):
		q := h.homePCPU(v)
		h.enqueue(q, v)
		h.tickle(q)
	default:
		h.enqueue(p, v)
	}
}

// sliceExpired preempts the current vCPU at the end of its quantum on p.
// The slice timer is stopped whenever cur changes (descheduleCurrent), so
// at fire time p.cur is exactly the vCPU the slice was armed for.
func (h *Hypervisor) sliceExpired(p *PCPU) {
	v := p.cur
	if v == nil {
		return // stale timer (should have been cancelled)
	}
	h.emit(trace.KindPreempt, v, 0, 0)
	h.descheduleCurrent(p)
	h.setRunnable(v)
	h.requeuePreempted(p, v)
	h.schedule(p)
}

// ---------------------------------------------------------------------------
// Guest-visible scheduling operations
// ---------------------------------------------------------------------------

// Yield is the SCHEDOP_yield / PLE-VMEXIT path: the running vCPU gives up
// its pCPU. The vCPU stays runnable and is re-queued at the tail of its
// priority class; the OnYield hook (the micro-sliced detector) gets a
// chance to migrate vCPUs before the pCPU reschedules.
//
// A hooked yield defers the requeue while it is a plain local enqueue (v in
// its home pool, allowed on p): the hook's first migration settles it
// (settleYield) before changing anything, and a hook that moves nothing
// leaves the yield as if no hook were set. Until that first migration the
// hook reads only RIPs, vCPU states and the micro pool's occupancy, none of
// which the enqueue touches. Any other requeue sends v
// home or tickles another pCPU, so it settles before the hook runs.
//
// Most yields of the storm hand the pCPU straight back: when redispatchable
// holds, the requeue-and-pick round trip would pick v again, so v is
// dispatched in place. The one side effect of the skipped enqueue, re-arming
// the pool's parked ticks, still runs at the same point.
func (h *Hypervisor) Yield(v *VCPU, reason YieldReason) {
	if v.state != StateRunning {
		panic(fmt.Sprintf("hv: yield of non-running %v", v))
	}
	p := v.pcpu
	h.countYield(v, reason)
	h.emit(trace.KindYield, v, uint64(reason), v.Guest.RIP())
	h.descheduleCurrent(p)
	h.setRunnable(v)
	if hook := h.Hooks.OnYield; hook != nil {
		h.yieldV, h.yieldP = v, p
		if v.pool != v.homePool || !v.canRunOn(p) {
			h.settleYield()
		}
		hook(v, reason)
		if h.yieldV == nil {
			h.schedule(p)
			return
		}
		h.yieldV, h.yieldP = nil, nil
	}
	again := h.redispatchable(p, v)
	if h.CheckPick != nil {
		var got *VCPU
		if again {
			got = v
		}
		h.CheckPick(p, v, got)
	}
	if again {
		if pl := p.pool; pl.parkedMask != 0 {
			h.unparkPool(pl)
		}
		h.dispatch(p, v)
		return
	}
	h.requeuePreempted(p, v)
	h.schedule(p)
}

// settleYield performs a pending yield's requeue, as the yield would have
// without a hook: the yielder declines the pCPU (reported to CheckPick)
// and is queued by requeuePreempted.
func (h *Hypervisor) settleYield() {
	v, p := h.yieldV, h.yieldP
	if v == nil {
		return
	}
	h.yieldV, h.yieldP = nil, nil
	if h.CheckPick != nil {
		h.CheckPick(p, v, nil)
	}
	h.requeuePreempted(p, v)
}

// redispatchable reports whether, with no pending OnYield migration to move
// work in between, Yield's requeue-and-pick would hand p straight back to
// v, which has just yielded it: requeuePreempted would queue v on p itself,
// nothing on p's runqueue is queued ahead of v's class tail (its head is
// strictly worse, or it is empty), and pickNext could steal nothing (no
// sibling head beats v, or the pool never steals).
func (h *Hypervisor) redispatchable(p *PCPU, v *VCPU) bool {
	if (v.pool.ReturnHome && v.pool != v.homePool) || !v.canRunOn(p) {
		return false
	}
	if len(p.runq) > 0 && p.runq[0].prio <= v.prio {
		return false
	}
	pl := p.pool
	return pl.NoSteal || pl.headsBelow(v.prio)&^(1<<uint(p.slot)) == 0
}

// Block is the SCHEDOP_block path: the guest has no runnable work (halt).
func (h *Hypervisor) Block(v *VCPU) {
	if v.state != StateRunning {
		panic(fmt.Sprintf("hv: block of non-running %v", v))
	}
	p := v.pcpu
	h.countYield(v, YieldHalt)
	h.emit(trace.KindBlock, v, 0, 0)
	h.descheduleCurrent(p)
	v.state = StateBlocked
	if h.Obs != nil {
		h.Obs.Transition(v.ID, obs.StateBlocked, h.Clock.Now())
	}
	if v.pool.ReturnHome && v.pool != v.homePool {
		// Leaving the micro pool: the vCPU simply belongs home again.
		h.leaveMicro(v)
	}
	h.schedule(p)
}

// Wake makes a blocked vCPU runnable (event-channel notification). A wake
// of a runnable or running vCPU is a no-op — which is exactly why Xen's
// BOOST cannot help a mixed-behaviour vCPU that is already on a runqueue
// (paper §4.1).
func (h *Hypervisor) Wake(v *VCPU, boost bool) {
	if v.state != StateBlocked {
		return
	}
	h.setRunnable(v)
	v.prio = v.basePrio()
	if h.Obs != nil {
		h.Obs.WakeBegin(v.ID, h.Clock.Now())
	}
	if boost && h.Cfg.BoostEnabled && !v.pool.NoBoost {
		v.prio = PrioBoost
		v.boosted = true
		h.emit(trace.KindBoost, v, 0, 0)
		if h.Obs != nil {
			h.Obs.Transition(v.ID, obs.StateBoosted, h.Clock.Now())
		}
	}
	h.emit(trace.KindWake, v, 0, 0)
	p := h.homePCPU(v)
	h.enqueue(p, v)
	h.tickle(p)
}

// tickle gives p a chance to pick up newly queued work, preempting a
// strictly lower-priority current vCPU.
func (h *Hypervisor) tickle(p *PCPU) {
	if p.offline {
		return
	}
	if p.cur == nil {
		h.schedule(p)
		return
	}
	if len(p.runq) == 0 || p.pool.NoPreempt {
		return
	}
	head := p.runq[0]
	if head.prio < p.cur.prio {
		cur := p.cur
		h.count("sched.tickle_preempt")
		h.descheduleCurrent(p)
		h.setRunnable(cur)
		h.requeuePreempted(p, cur)
		h.schedule(p)
	}
}

func (h *Hypervisor) countYield(v *VCPU, reason YieldReason) {
	r := int(reason)
	if r >= len(v.yieldsBy) {
		r = int(YieldOther) // matches YieldReason.String's fallback
	}
	v.yieldsBy[r]++
	h.hot.yieldBy[r].Inc()
	h.hot.yieldTotal.Inc()
	v.Dom.hot.yieldBy[r].Inc()
	v.Dom.hot.yieldTotal.Inc()
}

// ---------------------------------------------------------------------------
// Credit accounting
// ---------------------------------------------------------------------------

// pcpuTick is the per-pCPU scheduler tick. Ticks are staggered across
// pCPUs (as on real hardware): a synchronized tick would re-evaluate every
// runqueue at the same instant and produce artificial gang scheduling of
// same-priority vCPU sets.
//
// A tick that finds the pCPU fully idle — no current vCPU and an empty
// runqueue after refreshQueue's pick, i.e. pickNext found nothing in the
// whole pool this pCPU may run — parks instead of re-arming: firing it again
// would be a no-op. Every path that can make such a tick matter again
// (enqueue anywhere in the pool, direct dispatch, coming back online)
// re-arms it on its original stagger grid via unparkTick, so the observable
// tick times are exactly those of an never-parked tick.
func (h *Hypervisor) pcpuTick(p *PCPU) {
	if p.offline {
		// Nothing to charge and no pool to scan; park until OnlinePCPU.
		p.parked = true
		return
	}
	if v := p.cur; v != nil {
		if !p.ctxsw.Pending() {
			h.burnCredits(v)
		}
		// Boost lasts until the first tick lands on the running vCPU.
		// A vCPU that gained the pCPU through a boost has had its urgent
		// window; once de-boosted it must compete normally, so queued
		// work of equal or better priority preempts it here (otherwise a
		// sleep-and-wake loop converts every boost into a full slice).
		wasBoosted := v.boosted
		v.boosted = false
		v.prio = v.basePrio()
		if wasBoosted && len(p.runq) > 0 && p.runq[0].prio <= v.prio && !p.pool.NoPreempt {
			h.count("sched.deboost_preempt")
			h.descheduleCurrent(p)
			h.setRunnable(v)
			h.requeuePreempted(p, v)
		}
	}
	h.refreshQueue(p)
	if p.cur == nil && len(p.runq) == 0 {
		h.parkTick(p)
		return
	}
	h.armTick(&p.tick, h.Cfg.Tick)
}

// parkTick suppresses the tick of an idle pCPU (the tick event has already
// fired and is not re-armed) and drops the stale entry its stopped slice
// timer may have left queued, so an idle machine fires no slice events.
func (h *Hypervisor) parkTick(p *PCPU) {
	p.parked = true
	p.slice.Cancel()
	if p.pool != nil {
		p.pool.parkedMask |= 1 << uint(p.slot)
	}
}

// unparkTick re-arms a parked tick on the pCPU's original stagger grid: the
// next fire lands at the exact instant the tick would have fired had it
// never been parked, so credit burning and queue refreshes keep their
// bit-identical cadence.
func (h *Hypervisor) unparkTick(p *PCPU) {
	if !p.parked {
		return
	}
	p.parked = false
	if p.pool != nil {
		p.pool.parkedMask &^= 1 << uint(p.slot)
	}
	now := h.Clock.Now()
	delta := h.Cfg.Tick - (now-p.tickPhase)%h.Cfg.Tick
	h.armTick(&p.tick, delta)
}

// unparkPool re-arms every parked tick in the pool (new stealable work
// appeared; each pCPU's next tick decides for itself whether it still
// matters).
func (h *Hypervisor) unparkPool(pl *Pool) {
	for m := pl.parkedMask; m != 0; m &= m - 1 {
		h.unparkTick(pl.pcpus[bits.TrailingZeros64(m)])
	}
}

// burnCredits charges a running vCPU for its runtime since the last charge.
// Unlike credit1's tick-sampled debit (whoever happens to run at the tick
// pays a full tick), the charge is exact: in a deterministic simulation the
// sampling artifact phase-locks with slice boundaries and produces wildly
// unfair accounting, so runtime-proportional burning is the faithful-in-
// expectation substitute.
//
// In the yield storm most runs are shorter than one credit's worth
// (about 70 us against 100 us), so that case only carries the debt and
// skips both divisions.
func (h *Hypervisor) burnCredits(v *VCPU) {
	now := h.Clock.Now()
	total := int64(now-v.burnAt) + v.debtNs
	if total < h.nsPerCredit {
		v.debtNs = total
	} else {
		v.credits -= int(total / h.nsPerCredit)
		v.debtNs = total % h.nsPerCredit
	}
	v.burnAt = now
	if v.credits < h.Cfg.CreditFloor {
		v.credits = h.Cfg.CreditFloor
	}
}

// acctTick runs the global credit accounting (the master pCPU's job in
// credit1) and refreshes every runqueue.
func (h *Hypervisor) acctTick() {
	h.account()
	for _, p := range h.pcpus {
		h.refreshQueue(p)
	}
	h.armTick(&h.acct, h.Cfg.Tick*simtime.Duration(h.Cfg.TicksPerAcct))
}

// refreshQueue re-derives queued priorities and picks up work on an idle
// pCPU. Deliberately no preemption here: credit1 preempts a running vCPU
// only for boosted wakes — a runnable UNDER vCPU queued behind a running
// OVER one waits for the slice to end, which is precisely the
// full-30ms-scale virtual-time discontinuity the paper measures.
func (h *Hypervisor) refreshQueue(p *PCPU) {
	if len(p.runq) > 0 {
		for _, q := range p.runq {
			if !q.boosted {
				q.prio = q.basePrio()
			}
		}
		resortRunq(p)
	}
	h.schedule(p)
}

// account distributes credits: the pool of credits for one accounting
// period is split over all vCPUs in proportion to their domain's Weight
// (credit1 proportional share; every share is at least one credit so a
// zero-rounded vCPU cannot starve). Capacity is the *normal* pool's: micro
// pCPUs serve sub-millisecond visits and are not general capacity, exactly
// as in Xen's per-cpupool accounting — otherwise a CPU hog on a shrunken
// normal pool never goes OVER and priority stops protecting low-usage
// vCPUs.
func (h *Hypervisor) account() {
	if len(h.vcpus) == 0 {
		return
	}
	totalWeight := 0
	for _, v := range h.vcpus {
		totalWeight += v.Dom.Weight
	}
	if totalWeight <= 0 {
		return
	}
	total := h.Cfg.CreditDebitPerTick * h.Cfg.TicksPerAcct * len(h.normal.pcpus)
	for _, v := range h.vcpus {
		share := total * v.Dom.Weight / totalWeight
		if share < 1 {
			share = 1
		}
		v.credits += share
		if v.credits > h.Cfg.CreditCap {
			v.credits = h.Cfg.CreditCap
		}
	}
}
