package guest

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/hv/fifo"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Engine architecture
//
// Each guest VCPU advances exactly one activity at a time; all state lives
// in (Thread.ph, Thread.remaining, VCPU.irq) and a single pending clock
// event (VCPU.ev). The contract with the hypervisor:
//
//   - hv calls OnScheduled when the vCPU gains a pCPU: the engine re-arms
//     the checkpointed activity (an op's remaining time, a fresh PLE spin
//     window, an interrupted handler's remainder) or picks the next thread.
//   - hv calls OnDescheduled when the vCPU loses the pCPU: suspend()
//     cancels the event and checkpoints elapsed progress.
//   - hv calls OnInterrupt only while the vCPU runs: the handler borrows
//     the CPU (suspending the current activity), possibly queueing behind
//     an in-flight handler; effects (acks, wakeups, socket delivery) apply
//     when the handler's cost elapses.
//
// Two invariants make the engine safe against the re-entrancy of a
// discrete-event world:
//
//  1. Effects are synchronous Go code and therefore atomic in virtual
//     time; a guest->hv call (IPI send, block, yield) may synchronously
//     preempt the *calling* vCPU, so every continuation after such a call
//     re-checks v.running before arming events (see initiateShootdown and
//     startNextIRQ).
//  2. Threads parked on sleeping locks (ThreadLockWait) ignore wakes that
//     are not lock grants (phaseGranted), mirroring how rwsem waiters
//     re-check their condition and re-sleep on spurious wakeups.
//
// Instruction-pointer discipline: every activity sets VCPU.rip to an
// address inside the matching System.map function (or a user-space
// address), and the value freezes when the vCPU is descheduled — that
// frozen RIP is the only guest state the hypervisor-side detector reads.

// pendingGuestIRQ is an interrupt accepted by the vCPU but not yet handled
// (a handler is already executing).
type pendingGuestIRQ struct {
	vec  hv.Vector
	data uint64
}

// irqCtx is the in-flight interrupt handler of a vCPU.
type irqCtx struct {
	vec       hv.Vector
	data      uint64
	stage     int
	pkts      []Packet
	remaining simtime.Duration
}

// VCPU is the guest-side execution context of one virtual CPU. It
// implements hv.GuestContext. A vCPU advances exactly one activity at a
// time — the current thread's operation, a spin loop, an ack wait, the
// idle loop, or an interrupt handler — and checkpoints it whenever the
// hypervisor deschedules the vCPU.
type VCPU struct {
	k    *Kernel
	hvv  *hv.VCPU
	idx  int
	live int // unfinished threads homed here

	runq []*Thread
	cur  *Thread

	running     bool
	rip         uint64
	ev          simtime.Event // owned progress event, bound to fireEv
	phaseStart  simtime.Time
	needResched bool

	irq      *irqCtx
	irqBuf   irqCtx // backing store reused for every v.irq handler context
	irqQueue fifo.FIFO[pendingGuestIRQ]
	irqStart simtime.Time
	savedRIP uint64

	// Pre-bound progress callbacks, created once in NewKernel so the hot
	// paths arm the progress event without allocating a closure per fire.
	// armEv stashes its target in evFn, which fireEv, the event's bound
	// callback, runs.
	evFn           func()
	opDoneFn       func()
	irqStageDoneFn func()
	pleFireFn      func()
	ackSpinFireFn  func()

	Yields uint64 // guest-visible count of PLE + voluntary yields
}

// HV returns the hypervisor vCPU handle.
func (v *VCPU) HV() *hv.VCPU { return v.hvv }

// RIP implements hv.GuestContext.
func (v *VCPU) RIP() uint64 { return v.rip }

func (v *VCPU) now() simtime.Time { return v.k.Clock.Now() }

func (v *VCPU) setRIP(a uint64) { v.rip = a }

// armEv schedules the single progress event of the vCPU.
func (v *VCPU) armEv(d simtime.Duration, fn func()) {
	if v.ev.Pending() {
		panic(fmt.Sprintf("guest: vCPU %d double-armed", v.idx))
	}
	if !v.running {
		panic(fmt.Sprintf("guest: vCPU %d armed while descheduled", v.idx))
	}
	v.phaseStart = v.now()
	v.evFn = fn
	v.ev.Arm(d)
}

// fireEv is the progress event's callback: it runs the armed target.
func (v *VCPU) fireEv() {
	fn := v.evFn
	v.evFn = nil
	fn()
}

// ---------------------------------------------------------------------------
// hv.GuestContext
// ---------------------------------------------------------------------------

// OnScheduled resumes the checkpointed activity.
func (v *VCPU) OnScheduled(now simtime.Time) {
	v.running = true
	if v.irq != nil {
		v.resumeIRQ()
		return
	}
	if v.irqQueue.Len() > 0 {
		// The vCPU was descheduled between two queued handlers.
		v.startNextIRQ()
		return
	}
	v.resume()
}

// OnDescheduled checkpoints the in-flight activity.
func (v *VCPU) OnDescheduled(now simtime.Time) {
	v.suspend(now)
	v.running = false
	if v.ev.Pending() {
		panic(fmt.Sprintf("guest: vCPU %d descheduled with armed event", v.idx))
	}
}

// suspend checkpoints whatever is in flight and cancels the progress event.
func (v *VCPU) suspend(now simtime.Time) {
	if !v.ev.Pending() {
		return
	}
	elapsed := now - v.phaseStart
	if v.irq != nil {
		v.irq.remaining -= elapsed
		if v.irq.remaining < 0 {
			v.irq.remaining = 0
		}
	} else if t := v.cur; t != nil && t.ph == phaseOp {
		t.remaining -= elapsed
		if t.remaining < 0 {
			t.remaining = 0
		}
	}
	// phaseSpin / phaseAcks: the spin window simply restarts on resume.
	v.ev.Cancel()
}

// OnInterrupt accepts a virtual interrupt while running.
func (v *VCPU) OnInterrupt(now simtime.Time, vec hv.Vector, data uint64) {
	if !v.running {
		panic(fmt.Sprintf("guest: interrupt on idle vCPU %d", v.idx))
	}
	v.irqQueue.Push(pendingGuestIRQ{vec, data})
	if v.irq != nil {
		return // current handler finishes first; queued behind it
	}
	v.suspend(now)
	v.savedRIP = v.rip
	v.startNextIRQ()
}

// ---------------------------------------------------------------------------
// Interrupt handling
// ---------------------------------------------------------------------------

func (v *VCPU) startNextIRQ() {
	if !v.running {
		// Applying the previous handler's effects preempted this vCPU
		// (e.g. an IPI-triggered wake tickled our own pCPU); OnScheduled
		// continues the queue later.
		return
	}
	if v.irqQueue.Len() == 0 {
		v.irq = nil
		v.setRIP(v.savedRIP)
		v.resume()
		return
	}
	// An O(1) pop: the hypervisor drains a returning vCPU's whole backlog
	// into this queue at once, hundreds of net interrupts deep after an
	// off-CPU slice, so a copy-down pop would make the drain quadratic.
	p := v.irqQueue.Pop()
	v.irqBuf = irqCtx{vec: p.vec, data: p.data}
	v.irq = &v.irqBuf
	v.runIRQStage()
}

// runIRQStage arms the timer for the current handler stage.
func (v *VCPU) runIRQStage() {
	c := v.irq
	pr := &v.k.Params
	switch c.vec {
	case hv.VecCallFunc:
		c.remaining = pr.TLBFlushCost
		v.setRIP(v.k.addr.flushFunc)
	case hv.VecResched:
		c.remaining = pr.ReschedIPICost
		v.setRIP(v.k.addr.schedIPI)
	case hv.VecTimer, hv.VecDisk:
		c.remaining = pr.TimerIRQCost
		v.setRIP(v.k.addr.percpuIRQ)
	case hv.VecNet:
		if c.stage == 0 {
			c.remaining = pr.IRQCost
			v.setRIP(v.k.addr.e1000)
		} else {
			// softIRQ: fetch the ring once, pay per packet.
			if v.k.nic != nil {
				c.pkts = v.k.nic.Fetch(64)
			}
			n := len(c.pkts)
			if n == 0 {
				v.finishIRQ()
				return
			}
			c.remaining = simtime.Duration(n) * pr.SoftIRQPerPkt
			v.setRIP(v.k.addr.netRx)
		}
	default:
		panic(fmt.Sprintf("guest: unknown vector %v", c.vec))
	}
	v.armEv(c.remaining, v.irqStageDoneFn)
}

// resumeIRQ re-arms an interrupted handler after rescheduling.
func (v *VCPU) resumeIRQ() {
	v.armEv(v.irq.remaining, v.irqStageDoneFn)
}

// irqStageDone applies the handler's effects and advances.
func (v *VCPU) irqStageDone() {
	c := v.irq
	switch c.vec {
	case hv.VecCallFunc:
		v.k.ackShootdown(int(c.data))
	case hv.VecResched, hv.VecTimer, hv.VecDisk:
		t := v.k.threads[int(c.data)]
		if t.vc != v {
			panic(fmt.Sprintf("guest: %v IRQ for thread on vCPU %d handled on %d",
				c.vec, t.vc.idx, v.idx))
		}
		v.wakeLocal(t, true)
	case hv.VecNet:
		if c.stage == 0 {
			c.stage = 1
			v.runIRQStage()
			return
		}
		for _, p := range c.pkts {
			sock, ok := v.k.sockets[p.Flow]
			if !ok {
				if o := v.k.HV.Obs; o != nil {
					o.Cancel(p.Span) // dropped: its net_rx span never closes
					o.Cancel(p.ReqSpan)
				}
				continue // no listener; drop
			}
			if o := v.k.HV.Obs; o != nil {
				// hardirq + softirq processing ends here; what follows is
				// socket-buffer wait until the application consumes.
				o.Stage(p.Span, obs.NetStageSoftirq, v.now())
				o.Stage(p.ReqSpan, obs.ReqStageSoftirq, v.now())
			}
			if w := sock.deliver(p); w != nil {
				v.k.wakeThreadFrom(v, w)
			}
		}
	}
	v.finishIRQ()
}

func (v *VCPU) finishIRQ() {
	v.irq = nil
	v.startNextIRQ()
}

// ---------------------------------------------------------------------------
// Thread scheduling and op execution
// ---------------------------------------------------------------------------

// preemptible reports whether the current thread may be switched away at
// this instant (user computation with no lock held).
func (v *VCPU) preemptible() bool {
	t := v.cur
	if t == nil {
		return true
	}
	if t.lock != nil || t.shoot.active {
		return false
	}
	return t.ph == phaseOp && t.op.Kind == OpCompute
}

// wakeLocal makes a thread of this vCPU runnable. With preempt set, the
// woken thread is placed at the head of the queue and preempts a
// preemptible current thread (Linux wakeup-preemption).
func (v *VCPU) wakeLocal(t *Thread, preempt bool) {
	switch t.state {
	case ThreadReady, ThreadRunning, ThreadDone:
		return
	case ThreadLockWait:
		// Only the lock grant may end this wait (a spurious wake would
		// abandon the waiter entry); rwsem waiters re-check and re-sleep,
		// which collapses to ignoring the wake here.
		if t.ph != phaseGranted {
			return
		}
	}
	t.state = ThreadReady
	if preempt {
		// Insert at the head in place (no fresh slice): shift right by one.
		v.runq = append(v.runq, nil)
		copy(v.runq[1:], v.runq)
		v.runq[0] = t
		v.needResched = true
	} else {
		v.runq = append(v.runq, t)
	}
}

// resume drives the vCPU: honours pending preemption, picks a thread, and
// advances it — or idles/halts.
func (v *VCPU) resume() {
	if !v.running || v.irq != nil {
		return
	}
	if v.ev.Pending() {
		return // activity already in flight
	}
	if v.needResched && v.cur != nil && v.preemptible() && len(v.runq) > 0 {
		prev := v.cur
		prev.state = ThreadReady
		v.cur = nil
		// Preempted thread resumes right after the waker (runq slot 1).
		v.runq = append(v.runq, nil)
		copy(v.runq[2:], v.runq[1:len(v.runq)-1])
		v.runq[1] = prev
	}
	v.needResched = false
	if v.cur == nil {
		v.cur = v.pickNext()
	}
	if v.cur == nil {
		v.idle()
		return
	}
	v.advance()
}

func (v *VCPU) pickNext() *Thread {
	for len(v.runq) > 0 {
		t := v.runq[0]
		// Copy-down pop keeps the backing array's capacity for re-appends.
		n := copy(v.runq, v.runq[1:])
		v.runq = v.runq[:n]
		if t.state != ThreadReady {
			continue
		}
		t.state = ThreadRunning
		t.switchedInAt = v.now()
		return t
	}
	return nil
}

// idle halts the vCPU — unless interrupts are pending, in which case the
// hypervisor is about to drain them into handlers.
func (v *VCPU) idle() {
	v.setRIP(v.k.addr.halt)
	if v.hvv.PendingCount() > 0 {
		return // dispatch will drain; handlers will wake threads
	}
	v.k.HV.Block(v.hvv)
}

// advance progresses the current thread according to its phase.
func (v *VCPU) advance() {
	t := v.cur
	switch t.ph {
	case phaseIdle:
		v.nextOp()
	case phaseOp:
		v.setRIP(v.opRIP(t))
		v.armEv(t.remaining, v.opDoneFn)
	case phaseSpin:
		if t.lock != nil && t.lock.user {
			v.setRIP(UserSpinRIP)
		} else {
			v.setRIP(v.k.addr.spinSlow)
		}
		if o := v.k.HV.Obs; o != nil {
			// A spin window is (re)starting: everything since the last mark
			// — the PLE yield and the descheduled gap — was waiter
			// preemption, not spinning.
			o.Stage(t.lockSpan, obs.LockStagePreempt, v.now())
		}
		v.armEv(v.k.Params.PLEWindow, v.pleFireFn)
	case phaseGranted:
		v.enterCS(t)
	case phaseAcks:
		v.setRIP(v.k.addr.callMany)
		v.armEv(v.k.Params.AckSpinYield, v.ackSpinFireFn)
	case phaseAcksDone:
		v.finishShootdown(t)
	case phaseRestart:
		v.startOp(t)
	default:
		panic(fmt.Sprintf("guest: bad phase %d", t.ph))
	}
}

// nextOp fetches and starts the thread's next operation, applying the
// guest round-robin quantum at op boundaries.
func (v *VCPU) nextOp() {
	t := v.cur
	if len(v.runq) > 0 && v.now()-t.switchedInAt >= v.k.Params.GuestSlice {
		t.state = ThreadReady
		v.runq = append(v.runq, t)
		v.cur = v.pickNext()
		if v.cur == nil {
			v.idle()
			return
		}
		t = v.cur
	}
	t.prog.Next(v.now(), &t.op)
	t.opStage = 0
	v.startOp(t)
}

func (v *VCPU) opRIP(t *Thread) uint64 {
	switch t.op.Kind {
	case OpCompute:
		return v.k.addr.user
	case OpKernel:
		if t.op.RIP != 0 {
			return t.op.RIP
		}
		return v.k.addr.user
	case OpLock:
		return t.lock.body
	case OpTLBFlush:
		return v.k.addr.flushOthers
	case OpRecv:
		return v.k.addr.user
	case OpSend:
		return v.k.addr.netRx
	case OpWake:
		return v.k.addr.ttwu
	default:
		return v.k.addr.user
	}
}

// startOp begins the freshly fetched operation.
func (v *VCPU) startOp(t *Thread) {
	op := t.op
	switch op.Kind {
	case OpCompute, OpKernel, OpWake, OpSend:
		t.ph = phaseOp
		t.remaining = op.Dur
		v.advance()
	case OpLock:
		t.lock = op.Lock
		if op.Lock.tryAcquire(t) {
			v.enterCS(t)
			return
		}
		v.contendLock(t)
	case OpTLBFlush:
		if op.Lock != nil {
			// munmap shape: the shootdown runs under the address-space
			// lock, so a stalled flush serialises every sibling's
			// mmap/munmap (the compounding the paper describes in §3.1).
			t.lock = op.Lock
			if op.Lock.tryAcquire(t) {
				v.enterCS(t)
				return
			}
			v.contendLock(t)
			return
		}
		// Stage 1: initiator-side setup cost at native_flush_tlb_others.
		t.opStage = 1
		t.ph = phaseOp
		t.remaining = v.k.Params.TLBInitCost
		v.advance()
	case OpSleep:
		t.state = ThreadSleeping
		v.cur = nil
		v.k.Clock.After(op.Dur, t.timerFn)
		v.resume()
	case OpRecv:
		sock := op.Sock
		if sock.Len() == 0 {
			t.state = ThreadBlockedIO
			t.ph = phaseRestart // retry the recv when woken
			if sock.waiter != nil && sock.waiter != t {
				panic("guest: socket already has a waiter")
			}
			sock.waiter = t
			v.cur = nil
			v.resume()
			return
		}
		t.ph = phaseOp
		t.remaining = v.k.Params.RecvConsume
		v.advance()
	case OpDisk:
		if v.k.disk == nil {
			panic("guest: OpDisk without an attached BlockDevice")
		}
		t.state = ThreadBlockedIO
		v.cur = nil
		v.k.disk.Submit(int(op.Bytes), op.Write, t.diskFn)
		v.resume()
	case OpExit:
		t.state = ThreadDone
		t.ph = phaseIdle
		v.cur = nil
		v.live--
		if v.k.OnThreadExit != nil {
			v.k.OnThreadExit(t)
		}
		v.resume()
	default:
		panic(fmt.Sprintf("guest: unknown op kind %v", op.Kind))
	}
}

// contendLock parks t on the lock it failed to acquire: spinning (qspinlock)
// or blocking (rwsem/mutex), per the lock's semantics.
func (v *VCPU) contendLock(t *Thread) {
	t.spinStart = v.now()
	if t.lock.sleeping {
		t.state = ThreadLockWait
		v.cur = nil
		v.resume()
		return
	}
	t.ph = phaseSpin
	v.advance()
}

// enterCS begins the critical section of an acquired lock. For a locked
// TLB flush the "critical section" is the shootdown itself.
func (v *VCPU) enterCS(t *Thread) {
	t.ph = phaseOp
	if t.op.Kind == OpTLBFlush {
		t.opStage = 1
		t.remaining = v.k.Params.TLBInitCost
		v.setRIP(v.k.addr.flushOthers)
		v.armEv(t.remaining, v.opDoneFn)
		return
	}
	t.opStage = 1
	t.remaining = t.lock.holdDuration(t.op.Dur)
	v.setRIP(t.lock.body)
	v.armEv(t.remaining, v.opDoneFn)
}

// opDone applies the completed operation's effects.
func (v *VCPU) opDone() {
	t := v.cur
	now := v.now()
	if t.op.Kind == OpTLBFlush && t.opStage == 1 {
		v.initiateShootdown(t)
		return
	}
	// Capture the completion hook before the effects: a wake effect can
	// synchronously re-dispatch this vCPU and advance t.op to the next op
	// (see the comment below) — the hook must be the completed op's.
	done := t.op.Done
	// Commit completion before applying effects: an effect that wakes a
	// sibling (lock release, explicit wake, packet consume) can boost-tickle
	// this very pCPU, preempting and synchronously re-dispatching this vCPU
	// mid-effect. The re-entered resume must find the op already finished —
	// with ph still phaseOp it would re-arm a zero-length event and replay
	// the effect (double release, double transmit).
	t.ph = phaseIdle
	t.OpsDone++
	switch t.op.Kind {
	case OpLock:
		lk := t.lock
		t.lock = nil
		lk.release(t, now)
	case OpWake:
		if t.op.Target != nil {
			v.k.wakeThreadFrom(v, t.op.Target)
		}
	case OpSend:
		if v.k.nic != nil {
			v.k.nic.Transmit(int(t.op.Bytes), now)
		}
	case OpRecv:
		sock := t.op.Sock
		if sock.Len() == 0 {
			panic("guest: recv completion with empty socket")
		}
		p := sock.pop()
		sock.Consumed++
		if o := v.k.HV.Obs; o != nil {
			o.End(p.Span, now) // net_rx closes at application-level consume
			// The request span stays open: socket wait ends here, service
			// begins.
			o.Stage(p.ReqSpan, obs.ReqStageSock, now)
		}
		if sock.OnAppConsume != nil {
			sock.OnAppConsume(p, now)
		}
	}
	if done != nil {
		done(now)
	}
	v.resume()
}

// pleFire is the pause-loop-exit path: the spinner burnt a full PLE window.
func (v *VCPU) pleFire() {
	if o := v.k.HV.Obs; o != nil {
		if t := v.cur; t != nil {
			// The full PLE window just burnt is pure spin time.
			o.Stage(t.lockSpan, obs.LockStageSpin, v.now())
		}
	}
	v.Yields++
	v.k.HV.Yield(v.hvv, hv.YieldPLE)
}

// ackSpinFire is the voluntary yield while waiting for shootdown acks
// (the xen_smp_send_call_function path of a PV guest).
func (v *VCPU) ackSpinFire() {
	v.Yields++
	v.k.HV.Yield(v.hvv, hv.YieldIPIWait)
}

// granted is called by SpinLock.release when this thread wins the lock.
func (t *Thread) granted(now simtime.Time) {
	v := t.vc
	if v.cur != t {
		panic("guest: lock granted to a non-current thread")
	}
	if v.running && v.irq == nil && v.ev.Pending() {
		// The spinner is live: stop spinning, enter the CS immediately.
		v.ev.Cancel()
		v.enterCS(t)
		return
	}
	// LWP: the grantee's vCPU is preempted (or in a handler); it enters
	// the critical section when it next runs. The grant makes this thread
	// the lock holder poised at the first CS instruction, so expose the
	// critical-section RIP: the hypervisor-side detector must see a
	// preempted *holder*, not a spinner.
	t.ph = phaseGranted
	if v.irq != nil {
		v.savedRIP = t.lock.body
	} else {
		v.setRIP(t.lock.body)
	}
}

// initiateShootdown sends the call-function IPI to all live sibling vCPUs
// and transitions the initiator into the ack wait.
func (v *VCPU) initiateShootdown(t *Thread) {
	// Snapshot the live set (Linux's mm_cpumask read) into the kernel's
	// reusable buffer before sending: an IPI's wake effects can retire a
	// sibling's last thread mid-loop, and the shootdown targets the mask as
	// of flush initiation. initiateShootdown only runs from op-completion
	// clock events, so the snapshot can never be clobbered re-entrantly.
	live := v.k.shootBuf[:0]
	for _, w := range v.k.VCPUs {
		if w.live > 0 {
			live = append(live, w)
		}
	}
	v.k.shootBuf = live
	targets := 0
	for _, w := range live {
		if w == v {
			continue
		}
		targets++
		v.k.HV.SendVIPI(v.hvv, w.hvv, hv.VecCallFunc, uint64(v.idx))
	}
	if targets == 0 {
		v.k.TLBStat.Observe(0)
		v.finishShootdown(t)
		return
	}
	t.opStage = 2
	t.shoot = shootdown{active: true, pendingAcks: targets, start: v.now()}
	t.ph = phaseAcks
	// Sending the IPIs can wake a blocked sibling whose boost preempts
	// this very vCPU; arm the ack spin only if we are still on a pCPU.
	if v.running && v.irq == nil && !v.ev.Pending() && v.cur == t {
		v.advance()
	}
}

// finishShootdown completes the TLB flush op after all acks arrived,
// releasing the address-space lock if the flush ran under one.
func (v *VCPU) finishShootdown(t *Thread) {
	t.shoot = shootdown{}
	// Commit completion before the release: a sleeping-lock release wakes
	// the grantee through a reschedule IPI, which can boost-preempt this
	// very vCPU and synchronously re-dispatch it. With ph still phaseAcksDone
	// the re-entered advance would run finishShootdown again and
	// double-release the lock.
	t.ph = phaseIdle
	t.OpsDone++
	if lk := t.lock; lk != nil {
		t.lock = nil
		lk.release(t, v.now())
	}
	v.resume()
}

// ackShootdown is invoked by a recipient's flush handler; initIdx names the
// initiating vCPU.
func (k *Kernel) ackShootdown(initIdx int) {
	v := k.VCPUs[initIdx]
	t := v.cur
	if t == nil || !t.shoot.active {
		return // initiator already satisfied (stale ack); nothing to do
	}
	t.shoot.pendingAcks--
	if t.shoot.pendingAcks > 0 {
		return
	}
	k.TLBStat.Observe(int64(k.Clock.Now() - t.shoot.start))
	if v.running && v.irq == nil && v.ev.Pending() && t.ph == phaseAcks {
		v.ev.Cancel()
		v.finishShootdown(t)
		return
	}
	t.ph = phaseAcksDone
}

// wakeThreadFrom wakes t from the context of vCPU src. A cross-vCPU wake
// goes through the reschedule-IPI path — the mechanism whose delay the
// paper measures.
func (k *Kernel) wakeThreadFrom(src *VCPU, t *Thread) {
	switch t.state {
	case ThreadReady, ThreadRunning, ThreadWaking, ThreadDone:
		return
	case ThreadLockWait:
		if t.ph != phaseGranted {
			return // spurious wake of an rwsem waiter: re-checked, re-slept
		}
	}
	if t.vc == src {
		src.wakeLocal(t, true)
		return
	}
	t.state = ThreadWaking
	k.HV.SendVIPI(src.hvv, t.vc.hvv, hv.VecResched, uint64(t.ID))
}
