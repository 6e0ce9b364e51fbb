package hv

import (
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// RegrantCredits is a recovery primitive: it refills a vCPU's credit
// balance to the cap, clears carried debt, and (when boost is set and the
// pool allows boosting) raises the vCPU to PrioBoost exactly as the wake
// path would — re-sorting its runqueue and tickling the pCPU so a
// credit-starved vCPU stuck behind UNDER work gets a dispatch chance now
// rather than at the next accounting epoch. It never changes scheduling
// state; callers repair Runnable vCPUs.
func (h *Hypervisor) RegrantCredits(v *VCPU, boost bool) {
	v.credits = h.Cfg.CreditCap
	v.debtNs = 0
	prio := v.basePrio()
	if boost && h.Cfg.BoostEnabled && v.pool != nil && !v.pool.NoBoost && v.state == StateRunnable {
		prio = PrioBoost
		v.boosted = true
		h.emit(trace.KindBoost, v, 0, 0)
		if h.Obs != nil {
			h.Obs.Transition(v.ID, obs.StateBoosted, h.Clock.Now())
		}
	}
	v.prio = prio
	if v.queuedOn != nil {
		resortRunq(v.queuedOn)
		h.tickle(v.queuedOn)
	}
}
