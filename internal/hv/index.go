package hv

import "fmt"

// VerifySchedIndex cross-validates the scheduler's derived occupancy index —
// pool slot numbering, the occ/busy/parked bitmasks, each pCPU's cached head
// priority, and the parked-tick bookkeeping — against the ground truth
// (runqueue slices and current vCPUs). It returns the first inconsistency
// found, or nil.
//
// The index is maintained incrementally on every enqueue/dequeue/dispatch/
// deschedule and rebuilt on pool membership changes; there is no fallback
// path, so a drifted index silently changes scheduling decisions. The
// conformance harness runs this after every scenario and the invariant
// auditor on every walk.
func (h *Hypervisor) VerifySchedIndex() error {
	for _, pl := range []*Pool{h.normal, h.micro} {
		if len(pl.pcpus) > MaxPCPUs {
			return fmt.Errorf("hv: pool %s holds %d pCPUs, above the %d-slot index limit", pl.Name, len(pl.pcpus), MaxPCPUs)
		}
		member := pl.memberMask()
		if bad := pl.occ &^ member; bad != 0 {
			return fmt.Errorf("hv: pool %s occ mask %#x has bits outside members %#x", pl.Name, pl.occ, member)
		}
		if bad := pl.busyMask &^ member; bad != 0 {
			return fmt.Errorf("hv: pool %s busy mask %#x has bits outside members %#x", pl.Name, pl.busyMask, member)
		}
		if bad := pl.parkedMask &^ member; bad != 0 {
			return fmt.Errorf("hv: pool %s parked mask %#x has bits outside members %#x", pl.Name, pl.parkedMask, member)
		}
		for i, p := range pl.pcpus {
			if p.slot != i {
				return fmt.Errorf("hv: p%d at pool %s index %d has slot %d", p.ID, pl.Name, i, p.slot)
			}
			if p.pool != pl {
				return fmt.Errorf("hv: p%d in pool %s points at pool %s", p.ID, pl.Name, poolName(p.pool))
			}
			bit := uint64(1) << uint(i)
			if got, want := pl.occ&bit != 0, len(p.runq) > 0; got != want {
				return fmt.Errorf("hv: pool %s occ bit for p%d is %v, runqueue length %d", pl.Name, p.ID, got, len(p.runq))
			}
			if got, want := pl.busyMask&bit != 0, p.cur != nil; got != want {
				return fmt.Errorf("hv: pool %s busy bit for p%d is %v, current %v", pl.Name, p.ID, got, p.cur)
			}
			if got, want := pl.parkedMask&bit != 0, p.parked; got != want {
				return fmt.Errorf("hv: pool %s parked bit for p%d is %v, parked flag %v", pl.Name, p.ID, got, want)
			}
			wantHead := PrioIdle
			if len(p.runq) > 0 {
				wantHead = p.runq[0].prio
			}
			if p.headPrio != wantHead {
				return fmt.Errorf("hv: p%d cached head priority %v, runqueue head %v", p.ID, p.headPrio, wantHead)
			}
		}
	}
	for _, p := range h.pcpus {
		if p.offline {
			if p.slot != -1 {
				return fmt.Errorf("hv: offline p%d keeps pool slot %d", p.ID, p.slot)
			}
			continue
		}
		if p.pool == nil {
			return fmt.Errorf("hv: online p%d belongs to no pool", p.ID)
		}
		// Tick liveness: once Start armed the ticks, an online pCPU either
		// has its tick armed or is parked — never both, never neither.
		// (VerifySchedIndex runs from its own clock events, so no tick
		// callback is mid-flight with its event transiently unqueued.)
		if h.started {
			if p.parked && p.tick.Pending() {
				return fmt.Errorf("hv: p%d parked with an armed tick", p.ID)
			}
			if !p.parked && !p.tick.Pending() {
				return fmt.Errorf("hv: p%d neither parked nor tick-armed", p.ID)
			}
		}
	}
	return nil
}
