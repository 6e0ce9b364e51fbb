package hv

import (
	"fmt"
	"math/bits"

	"github.com/microslicedcore/microsliced/internal/trace"
)

// ---------------------------------------------------------------------------
// vCPU migration between pools
// ---------------------------------------------------------------------------

// MigrateToMicro moves a preempted (Runnable) or halted (Blocked) vCPU into
// the micro-sliced pool so its critical OS service completes within a
// 0.1 ms turnaround. A Running vCPU needs no acceleration and is refused.
// The move also fails when the micro pool is empty or every micro pCPU is
// at its runqueue limit (the paper's stacking guard, §5).
func (h *Hypervisor) MigrateToMicro(v *VCPU) bool {
	if len(h.micro.pcpus) == 0 {
		return false
	}
	if v.pool == h.micro {
		return false // already being accelerated
	}
	if v.state == StateRunning {
		return false
	}
	// Find capacity first so failure leaves the vCPU untouched. The fully
	// idle case (no current vCPU, empty runqueue) is one mask probe; the
	// fallback scan only runs when every micro pCPU holds work.
	var idle, queued *PCPU
	if free := ^(h.micro.occ | h.micro.busyMask) & h.micro.memberMask(); free != 0 {
		idle = h.micro.pcpus[bits.TrailingZeros64(free)]
	} else {
		for _, p := range h.micro.pcpus {
			if h.micro.RunqLimit == 0 || len(p.runq) < h.micro.RunqLimit {
				queued = p
				break
			}
		}
	}
	if idle == nil && queued == nil {
		if h.hot.microFull == nil {
			h.hot.microFull = h.Counters.Handle("migrate.micro_full")
		}
		h.hot.microFull.Inc()
		return false
	}
	if v.state == StateRunnable {
		h.dequeue(v)
	}
	h.setRunnable(v)
	v.pool = h.micro
	v.microVisits++
	h.hot.migrMicro.Inc()
	v.Dom.hot.migrMicro.Inc()
	h.emit(trace.KindMigrate, v, 0, 0)
	if h.Obs != nil {
		h.Obs.SetMicro(v.ID, true, h.Clock.Now())
	}
	if idle != nil {
		h.dispatch(idle, v)
	} else {
		h.enqueue(queued, v)
	}
	return true
}

// leaveMicro flips a micro resident's pool membership back to its home
// pool. The migrate-home counter, trace record and observer membership
// update live only here, so the three ledgers can never drift apart.
func (h *Hypervisor) leaveMicro(v *VCPU) {
	v.pool = v.homePool
	h.hot.migrHome.Inc()
	h.emit(trace.KindMigrate, v, 1, 0)
	if h.Obs != nil {
		h.Obs.SetMicro(v.ID, false, h.Clock.Now())
	}
}

// sendHome returns a runnable, unqueued micro resident to its home pool and
// queues it there — the single exit path for every "micro resident migrates
// home" site (slice expiry, pool shrink, pCPU hot-unplug).
func (h *Hypervisor) sendHome(v *VCPU) {
	if v.state != StateRunnable || v.queuedOn != nil {
		panic(fmt.Sprintf("hv: sendHome of %v", v))
	}
	h.leaveMicro(v)
	p := h.homePCPU(v)
	h.enqueue(p, v)
	h.tickle(p)
}

// RePin changes a vCPU's pinning at runtime (rival schedulers repartition
// pCPUs per class). A queued vCPU moves to a compatible runqueue at once;
// a running vCPU finishes its slice first (requeuePreempted then places
// it correctly).
func (h *Hypervisor) RePin(v *VCPU, pcpu int) {
	v.pin = pcpu
	if v.state == StateRunnable && v.queuedOn != nil {
		if !v.canRunOn(v.queuedOn) {
			h.dequeue(v)
			q := h.homePCPU(v)
			h.enqueue(q, v)
			h.tickle(q)
		} else if v.pool.parkedMask != 0 {
			// The vCPU stays put, but the pin change may have made it
			// stealable by a pCPU whose idle tick is parked.
			h.unparkPool(v.pool)
		}
	}
}

// ForceDispatch preempts whatever runs on p and dispatches v there — the
// primitive behind gang (co-)scheduling rivals. v must be Runnable and
// placeable on p; returns false otherwise (v already running on p counts
// as success).
func (h *Hypervisor) ForceDispatch(p *PCPU, v *VCPU) bool {
	if p.cur == v {
		return true
	}
	if v.state != StateRunnable || !v.canRunOn(p) {
		return false
	}
	if p.cur != nil {
		cur := p.cur
		h.count("sched.force_preempt")
		h.descheduleCurrent(p)
		h.setRunnable(cur)
		h.requeuePreempted(p, cur)
	}
	h.dequeue(v)
	h.dispatch(p, v)
	return true
}

// ---------------------------------------------------------------------------
// Pool resizing
// ---------------------------------------------------------------------------

// GrowMicro moves one pCPU from the normal pool to the micro pool,
// redistributing its queued vCPUs. At least one normal pCPU always remains.
// Returns false when the normal pool cannot shrink further.
func (h *Hypervisor) GrowMicro() bool {
	if len(h.normal.pcpus) <= 1 {
		return false
	}
	// Take the highest-numbered normal pCPU without pinned load.
	var p *PCPU
	for i := len(h.normal.pcpus) - 1; i >= 0; i-- {
		cand := h.normal.pcpus[i]
		if !h.hasPinnedLoad(cand) {
			p = cand
			break
		}
	}
	if p == nil {
		return false
	}
	// Preempt whatever is running.
	if p.cur != nil {
		cur := p.cur
		h.descheduleCurrent(p)
		h.setRunnable(cur)
		h.requeueElsewhere(cur, p)
	}
	// Drain the runqueue.
	for len(p.runq) > 0 {
		v := p.runq[0]
		h.dequeue(v)
		h.requeueElsewhere(v, p)
	}
	h.accrueMicro()
	h.removePCPU(h.normal, p)
	p.pool = h.micro
	p.lastRan = nil
	h.micro.pcpus = append(h.micro.pcpus, p)
	h.micro.reindex()
	h.count("pool.grow")
	h.emit(trace.KindPoolResize, nil, uint64(len(h.micro.pcpus)), 0)
	return true
}

// ShrinkMicro returns the most recently added micro pCPU to the normal
// pool. Micro-resident vCPUs on it migrate home first. Returns false when
// the micro pool is empty.
func (h *Hypervisor) ShrinkMicro() bool {
	n := len(h.micro.pcpus)
	if n == 0 {
		return false
	}
	p := h.micro.pcpus[n-1]
	if p.cur != nil {
		cur := p.cur
		h.descheduleCurrent(p)
		h.setRunnable(cur)
		h.sendHome(cur)
	}
	for len(p.runq) > 0 {
		v := p.runq[0]
		h.dequeue(v)
		h.sendHome(v)
	}
	h.accrueMicro()
	h.micro.pcpus = h.micro.pcpus[:n-1]
	h.micro.reindex()
	p.pool = h.normal
	p.lastRan = nil
	h.normal.pcpus = append(h.normal.pcpus, p)
	h.normal.reindex()
	h.count("pool.shrink")
	h.emit(trace.KindPoolResize, nil, uint64(len(h.micro.pcpus)), 0)
	// The pCPU can immediately pick up normal work.
	h.schedule(p)
	return true
}

// SetMicroCount grows or shrinks the micro pool to exactly n pCPUs (static
// / manual mode, paper §4.3). It returns the achieved size.
func (h *Hypervisor) SetMicroCount(n int) int {
	if n < 0 {
		n = 0
	}
	for len(h.micro.pcpus) < n {
		if !h.GrowMicro() {
			break
		}
	}
	for len(h.micro.pcpus) > n {
		if !h.ShrinkMicro() {
			break
		}
	}
	return len(h.micro.pcpus)
}

func (h *Hypervisor) hasPinnedLoad(p *PCPU) bool {
	if p.cur != nil && p.cur.pin == p.ID {
		return true
	}
	for _, v := range p.runq {
		if v.pin == p.ID {
			return true
		}
	}
	return false
}

// requeueElsewhere places a runnable vCPU on another pCPU of its pool
// (used while draining a pCPU that is leaving the pool).
func (h *Hypervisor) requeueElsewhere(v *VCPU, excluding *PCPU) {
	pool := v.pool
	var best *PCPU
	bestLoad := 0
	for _, q := range pool.pcpus {
		if q == excluding || !v.canRunOn(q) {
			continue
		}
		if best == nil || loadOf(q) < bestLoad {
			best, bestLoad = q, loadOf(q)
		}
	}
	if best == nil {
		// Pool is collapsing around a pinned vCPU; violate the pin rather
		// than lose the vCPU (counted so tests can assert it never happens
		// in paper scenarios).
		h.count("pin.violated")
		for _, q := range pool.pcpus {
			if q != excluding {
				best = q
				break
			}
		}
		if best == nil {
			panic(fmt.Sprintf("hv: nowhere to requeue %v", v))
		}
	}
	h.enqueue(best, v)
	h.tickle(best)
}

// ---------------------------------------------------------------------------
// pCPU hotplug (fault injection)
// ---------------------------------------------------------------------------

// OfflinePCPU hot-unplugs a pCPU mid-run: the current vCPU is preempted and
// every queued vCPU is redistributed, then the pCPU leaves its pool entirely.
// Micro-pool residents migrate back to their home pool (the controller will
// re-grow the micro pool elsewhere if load still warrants it). The last
// online normal-pool pCPU cannot be removed — the system always retains
// general-purpose capacity.
func (h *Hypervisor) OfflinePCPU(id int) error {
	p := h.pcpuByID(id)
	if p == nil {
		return fmt.Errorf("hv: offline of unknown pCPU %d", id)
	}
	if p.offline {
		return fmt.Errorf("hv: pCPU %d already offline", id)
	}
	if p.pool == h.normal && len(h.normal.pcpus) <= 1 {
		return fmt.Errorf("hv: cannot offline p%d: last normal-pool pCPU", id)
	}
	fromMicro := p.pool == h.micro
	if p.cur != nil {
		cur := p.cur
		h.descheduleCurrent(p)
		h.setRunnable(cur)
		if fromMicro {
			h.sendHome(cur)
		} else {
			h.requeueElsewhere(cur, p)
		}
	}
	for len(p.runq) > 0 {
		v := p.runq[0]
		h.dequeue(v)
		if fromMicro {
			h.sendHome(v)
		} else {
			h.requeueElsewhere(v, p)
		}
	}
	if fromMicro {
		h.accrueMicro()
	}
	h.removePCPU(p.pool, p)
	p.pool = nil
	p.lastRan = nil
	p.offline = true
	// The tick stays armed and parks itself at its next fire; OnlinePCPU
	// resumes it on the original stagger grid.
	h.count("hotplug.offline")
	h.emit(trace.KindHotplug, nil, 0, uint64(p.ID))
	if h.Hooks.OnCapacityChange != nil {
		h.Hooks.OnCapacityChange(h.OnlinePCPUs())
	}
	return nil
}

// OnlinePCPU brings a hot-unplugged pCPU back, always into the normal pool
// (the dynamic controller re-grows the micro pool on its own if warranted).
func (h *Hypervisor) OnlinePCPU(id int) error {
	p := h.pcpuByID(id)
	if p == nil {
		return fmt.Errorf("hv: online of unknown pCPU %d", id)
	}
	if !p.offline {
		return fmt.Errorf("hv: pCPU %d is not offline", id)
	}
	p.offline = false
	p.pool = h.normal
	p.lastRan = nil
	h.normal.pcpus = append(h.normal.pcpus, p)
	h.normal.reindex()
	h.unparkTick(p)
	h.count("hotplug.online")
	h.emit(trace.KindHotplug, nil, 1, uint64(p.ID))
	h.schedule(p)
	if h.Hooks.OnCapacityChange != nil {
		h.Hooks.OnCapacityChange(h.OnlinePCPUs())
	}
	return nil
}

func (h *Hypervisor) pcpuByID(id int) *PCPU {
	for _, p := range h.pcpus {
		if p.ID == id {
			return p
		}
	}
	return nil
}

func (h *Hypervisor) removePCPU(pool *Pool, p *PCPU) {
	for i, q := range pool.pcpus {
		if q == p {
			pool.pcpus = append(pool.pcpus[:i], pool.pcpus[i+1:]...)
			p.slot = -1
			pool.reindex()
			return
		}
	}
	panic(fmt.Sprintf("hv: p%d not in pool %s", p.ID, pool.Name))
}
