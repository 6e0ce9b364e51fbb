package guest

import (
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// SpinLock models a Linux qspinlock: the fast path acquires an uncontended
// lock immediately; contended waiters queue FIFO and spin on their own
// node. The two virtualization pathologies the paper targets both arise
// here:
//
//   - lock-holder preemption (LHP): the holder's vCPU is descheduled mid
//     critical section, so every waiter spins until PLE yields it away;
//   - lock-waiter preemption (LWP): the FIFO grant lands on a waiter whose
//     vCPU is descheduled, so the lock sits idle until that vCPU runs.
type SpinLock struct {
	k     *Kernel
	name  string
	class string
	body  uint64 // RIP used while holding (the critical-section function)

	// user marks an application-level lock: its critical section runs at a
	// user-space RIP (a registered region under the §4.4 extension), and
	// its waiters spin at an unregistered user address.
	user bool

	// sleeping selects rwsem/mutex semantics: contended waiters block
	// (halting their vCPU when nothing else is runnable) and the release
	// path wakes the FIFO head through the scheduler — the mmap_sem
	// behaviour behind dedup's halt-yield signature in the paper's Fig. 7.
	sleeping bool

	holder  *Thread
	waiters []*Thread

	// stat is the interned LockStat[class] histogram, resolved at lock
	// construction so the contended-release path skips the map lookup.
	stat *metrics.Histogram

	Acquisitions uint64
	Contended    uint64
}

// Name returns the lock's name.
func (l *SpinLock) Name() string { return l.name }

// holdDuration returns the critical-section duration for a thread that just
// acquired l. A fault plan's LockStall hook may amplify it, modelling a
// holder that stalls inside the critical section (cache misses, host-level
// interference) — the raw material of lock-holder preemption.
func (l *SpinLock) holdDuration(d simtime.Duration) simtime.Duration {
	if l.k.LockStall != nil {
		if d = l.k.LockStall(l.class, d); d < 0 {
			d = 0
		}
	}
	return d
}

// tryAcquire implements the fast path. It returns true when t now holds
// the lock.
func (l *SpinLock) tryAcquire(t *Thread) bool {
	if l.holder == nil && len(l.waiters) == 0 {
		// Fast path: no wait recorded — Lockstat's wait-time statistics
		// cover contended acquisitions only.
		l.holder = t
		l.Acquisitions++
		return true
	}
	l.Contended++
	if o := l.k.HV.Obs; o != nil {
		// The lock_acquire span covers contended acquisitions only, matching
		// LockStat: it opens at the failed fast path and closes at the grant.
		t.lockSpan = o.Begin(obs.SpanLockAcquire, int16(l.k.Dom.ID), int16(t.vc.idx), 0, l.k.Clock.Now())
	}
	l.waiters = append(l.waiters, t)
	return false
}

// release hands the lock to a waiter, recording its wait time. Grant
// preference follows qspinlock-on-virt behaviour (pending-bit stealing and
// paravirt unfairness): the first *live* spinner — one whose vCPU is
// currently executing — wins; only when every waiter's vCPU is preempted
// does the grant fall back to the FIFO head, which then sits on the lock
// until its vCPU runs (the residual lock-waiter-preemption case).
func (l *SpinLock) release(t *Thread, now simtime.Time) {
	if l.holder != t {
		panic("guest: release of lock not held by " + t.Name)
	}
	l.holder = nil
	if len(l.waiters) == 0 {
		return
	}
	if l.sleeping {
		// rwsem_wake: hand to the FIFO head and wake it through the
		// scheduler (cross-vCPU: a reschedule IPI).
		w := l.waiters[0]
		l.waiters = l.waiters[1:]
		l.holder = w
		l.Acquisitions++
		l.stat.Observe(int64(now - w.spinStart))
		l.endAcquireSpan(w, now)
		w.ph = phaseGranted
		l.k.wakeThreadFrom(t.vc, w)
		return
	}
	idx := 0
	for i, w := range l.waiters {
		if w.vc.running && w.vc.irq == nil {
			idx = i
			break
		}
	}
	w := l.waiters[idx]
	l.waiters = append(l.waiters[:idx], l.waiters[idx+1:]...)
	l.holder = w
	l.Acquisitions++
	l.stat.Observe(int64(now - w.spinStart))
	l.endAcquireSpan(w, now)
	w.granted(now)
}

// endAcquireSpan closes w's lock_acquire span at the grant, attributing the
// final wait segment by how the waiter spent it: parked on a sleeping lock,
// spinning live on a pCPU, or descheduled (lock-waiter preemption).
func (l *SpinLock) endAcquireSpan(w *Thread, now simtime.Time) {
	if o := l.k.HV.Obs; o != nil {
		stage := obs.LockStagePreempt
		switch {
		case l.sleeping:
			stage = obs.LockStageSleep
		case w.vc.running && w.vc.irq == nil:
			stage = obs.LockStageSpin
		}
		o.Stage(w.lockSpan, stage, now)
		o.End(w.lockSpan, now)
		w.lockSpan = 0
	}
}
