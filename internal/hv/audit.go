package hv

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// ---------------------------------------------------------------------------
// Scheduler invariant auditor
// ---------------------------------------------------------------------------
//
// The auditor walks the full hypervisor state on a periodic clock event and
// reports inconsistencies as structured InvariantErrors instead of letting
// them surface later as a confusing panic (or worse, a silently wrong
// result). It exists for fault-injection runs: perturbed IPI timing and
// pCPU hotplug exercise scheduler paths the happy-path tests never reach,
// and the auditor is the oracle that says the state machine survived.
//
// Invariants checked on every walk:
//
//   1. Placement: every vCPU is in exactly one place — Running on exactly
//      one pCPU (with back-pointers consistent), Runnable on exactly one
//      runqueue of its current pool, or Blocked on neither.
//   2. Pool membership: each online pCPU's pool contains it; offline pCPUs
//      belong to no pool and hold no work; runqueues are priority-sorted.
//   3. Credits: every vCPU's credits stay within [CreditFloor, CreditCap].
//   4. Progress: no Runnable vCPU has waited longer than auditStarveHorizon
//      without being dispatched.

// InvariantError is one detected inconsistency. It carries the tail of the
// trace ring at detection time so the events leading up to the violation
// can be inspected without re-running, and — when an observer is attached —
// the full per-vCPU residency table, so e.g. a starvation report shows
// exactly how long each vCPU sat runnable versus running or blocked.
type InvariantError struct {
	Time      simtime.Time
	Rule      string // short rule identifier, e.g. "placement", "starvation"
	Detail    string
	Trace     []trace.Record
	Residency []obs.VCPUResidency // nil when no observer was attached
}

func (e *InvariantError) Error() string {
	return fmt.Sprintf("invariant %q violated at %v: %s", e.Rule, e.Time, e.Detail)
}

const (
	// auditStarveHorizon is the longest Runnable wait the walk tolerates.
	auditStarveHorizon = simtime.Second
	// auditMaxViolations caps the recorded violations; later ones are
	// dropped.
	auditMaxViolations = 32
	// auditTraceDepth is the trace-ring tail attached to each violation.
	auditTraceDepth = 32
)

// Auditor periodically verifies hypervisor scheduling invariants.
type Auditor struct {
	h *Hypervisor
	// onViolation, when non-nil, fires synchronously for each recorded
	// violation (not for ones dropped beyond auditMaxViolations).
	onViolation func(*InvariantError)
	violations  []InvariantError
	// starved dedups starvation reports: one per (vCPU, wait episode).
	starved map[*VCPU]simtime.Time
	// running/queued are the walk's scratch maps (pass-1 placement counts),
	// allocated once and cleared per walk so a hardened run's audit cadence
	// is allocation-free.
	running map[*VCPU]int
	queued  map[*VCPU]int
	walk    simtime.Event // owned: the periodic walk, re-armed in place
}

// EnableAudit arms a periodic invariant walk on the hypervisor's clock,
// one walk per scheduler tick. onViolation, when non-nil, fires
// synchronously for each recorded violation; the experiment harness uses it
// to trigger the flight recorder. Call before Start; the first walk runs
// one tick into the run. The walk itself never mutates scheduler state, so
// enabling the auditor does not change simulation results. Each walk
// re-arms the auditor's own event in place.
func (h *Hypervisor) EnableAudit(onViolation func(*InvariantError)) *Auditor {
	a := &Auditor{
		h:           h,
		onViolation: onViolation,
		starved:     make(map[*VCPU]simtime.Time),
	}
	h.Clock.Bind(&a.walk, "audit", func() {
		a.audit()
		a.walk.Arm(h.Cfg.Tick)
	})
	a.walk.Arm(h.Cfg.Tick)
	return a
}

// Violations returns the violations recorded so far, at most
// auditMaxViolations of them.
func (a *Auditor) Violations() []InvariantError { return a.violations }

func (a *Auditor) report(rule, format string, args ...any) {
	if len(a.violations) >= auditMaxViolations {
		return
	}
	e := InvariantError{
		Time:   a.h.Clock.Now(),
		Rule:   rule,
		Detail: fmt.Sprintf(format, args...),
		Trace:  a.h.Trace.Tail(auditTraceDepth),
	}
	if a.h.Obs != nil {
		e.Residency = a.h.Obs.ResidencySnapshot(e.Time)
	}
	a.violations = append(a.violations, e)
	if a.onViolation != nil {
		a.onViolation(&a.violations[len(a.violations)-1])
	}
}

func (a *Auditor) audit() {
	h := a.h
	now := h.Clock.Now()

	// Pass 0: the derived occupancy index agrees with the ground truth.
	if err := h.VerifySchedIndex(); err != nil {
		a.report("index", "%v", err)
	}

	// Pass 0b: pool membership conserves capacity — every online pCPU is in
	// exactly one pool, so the pools' online counts sum to the machine's.
	if got, want := h.normal.OnlineCount()+h.micro.OnlineCount(), h.OnlinePCPUs(); got != want {
		a.report("capacity", "pools hold %d online pCPUs but the machine has %d", got, want)
	}

	// Pass 1: pCPU-side view. Count where each vCPU appears.
	if a.running == nil {
		a.running = make(map[*VCPU]int, len(h.vcpus))
		a.queued = make(map[*VCPU]int, len(h.vcpus))
	}
	running, queued := a.running, a.queued
	clear(running)
	clear(queued)
	for _, p := range h.pcpus {
		if p.offline {
			if p.pool != nil {
				a.report("pool", "offline p%d still in pool %s", p.ID, p.pool.Name)
			}
			if p.cur != nil {
				a.report("placement", "offline p%d runs %v", p.ID, p.cur)
			}
			if len(p.runq) != 0 {
				a.report("placement", "offline p%d holds %d queued vCPUs", p.ID, len(p.runq))
			}
			continue
		}
		if p.pool == nil {
			a.report("pool", "online p%d belongs to no pool", p.ID)
		} else {
			found := false
			for _, q := range p.pool.pcpus {
				if q == p {
					found = true
					break
				}
			}
			if !found {
				a.report("pool", "p%d points at pool %s but the pool does not list it", p.ID, p.pool.Name)
			}
		}
		if v := p.cur; v != nil {
			running[v]++
			if v.state != StateRunning {
				a.report("placement", "p%d runs %v in state %v", p.ID, v, v.state)
			}
			if v.pcpu != p {
				a.report("placement", "%v on p%d has stale pcpu back-pointer", v, p.ID)
			}
			if v.queuedOn != nil {
				a.report("placement", "running %v also queued on p%d", v, v.queuedOn.ID)
			}
		}
		for i, v := range p.runq {
			queued[v]++
			if v.queuedOn != p {
				a.report("placement", "%v in p%d runq but queuedOn mismatch", v, p.ID)
			}
			if v.state != StateRunnable {
				a.report("placement", "queued %v on p%d in state %v", v, p.ID, v.state)
			}
			if v.pool != p.pool {
				a.report("pool", "%v of pool %v queued on p%d of pool %s",
					v, poolName(v.pool), p.ID, p.pool.Name)
			}
			if i > 0 && p.runq[i-1].prio > v.prio {
				a.report("placement", "p%d runqueue not priority-sorted at index %d", p.ID, i)
			}
		}
	}

	// Pass 2: vCPU-side view against the counts from pass 1.
	for _, v := range h.vcpus {
		switch v.state {
		case StateRunning:
			if running[v] != 1 || queued[v] != 0 {
				a.report("placement", "running %v appears on %d pCPUs and %d runqueues",
					v, running[v], queued[v])
			}
		case StateRunnable:
			if running[v] != 0 || queued[v] != 1 {
				a.report("placement", "runnable %v appears on %d pCPUs and %d runqueues",
					v, running[v], queued[v])
			}
			if wait := now - v.runnableSince; wait > auditStarveHorizon {
				if since, seen := a.starved[v]; !seen || since != v.runnableSince {
					a.starved[v] = v.runnableSince
					if r, ok := a.residencyOf(v, now); ok {
						a.report("starvation", "%v runnable for %v (> horizon %v); lifetime: ran %v, waited %v (boosted %v), blocked %v",
							v, wait, auditStarveHorizon, r.Running, r.Wait(), r.Boosted, r.Blocked)
					} else {
						a.report("starvation", "%v runnable for %v (> horizon %v)",
							v, wait, auditStarveHorizon)
					}
				}
			}
		case StateBlocked:
			if running[v] != 0 || queued[v] != 0 {
				a.report("placement", "blocked %v appears on %d pCPUs and %d runqueues",
					v, running[v], queued[v])
			}
		default:
			a.report("placement", "%v in unknown state %d", v, int(v.state))
		}
		if v.state != StateRunnable {
			delete(a.starved, v)
		}
		if v.credits < h.Cfg.CreditFloor || v.credits > h.Cfg.CreditCap {
			a.report("credits", "%v credits %d outside [%d, %d]",
				v, v.credits, h.Cfg.CreditFloor, h.Cfg.CreditCap)
		}
		if v.pool != v.homePool && v.pool != h.micro && v.pool != nil {
			a.report("pool", "%v in pool %s that is neither home nor micro", v, v.pool.Name)
		}
	}
}

// residencyOf fetches one vCPU's accounting snapshot (ok=false when no
// observer is attached).
func (a *Auditor) residencyOf(v *VCPU, now simtime.Time) (obs.VCPUResidency, bool) {
	if a.h.Obs == nil {
		return obs.VCPUResidency{}, false
	}
	return a.h.Obs.VCPUResidencyOf(v.ID, now)
}

func poolName(pl *Pool) string {
	if pl == nil {
		return "<nil>"
	}
	return pl.Name
}
