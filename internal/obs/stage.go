package obs

import "github.com/microslicedcore/microsliced/internal/simtime"

// Causal attribution: every span kind decomposes into an ordered set of
// *stages* — the distinct waits a request passes through between Begin and
// End. Stage boundaries are recorded on the open-span slot itself (a mark
// cursor plus a fixed-size duration array), so attribution rides the same
// free-listed table as the spans and stays allocation-free on hot paths.
//
// The contract is a conservation law: at End the time since the last mark is
// credited to the kind's *final* stage, so for every closed span
//
//	Σ stage durations == span duration   (exact, simulated time)
//
// holds by construction. internal/check enforces the aggregated form of this
// law (per-kind exact int64 ledgers) after every conformance run, which
// catches mis-attribution bugs such as staging against a recycled ref or a
// stale timestamp.

// maxStages bounds the stage count of any span kind; the per-span stage
// array is this long so slots stay fixed-size.
const maxStages = 5

// wake_dispatch stages: where a woken vCPU's scheduling turnaround went.
const (
	// WakeStageBoost: waiting on a runqueue at BOOST priority.
	WakeStageBoost = iota
	// WakeStageRunq: waiting on a normal-pool runqueue at UNDER/OVER.
	WakeStageRunq
	// WakeStageMicro: waiting on a micro-pool runqueue.
	WakeStageMicro
	// WakeStageDispatch: the final Begin/End remainder. hv credits every
	// wait segment from its state transitions, so a healthy run leaves this
	// at zero; nonzero means a dispatch closed the span without a matching
	// Running transition.
	WakeStageDispatch
)

// ipi_deliver stages: where a virtual IPI spent its delivery time.
const (
	// IPIStageSend: sender-side latency — emulation cost and wire delay up
	// to the delivery decision at the target.
	IPIStageSend = iota
	// IPIStageRetry: drop/retry backoff and time parked in the lost-IPI
	// ledger before a redrive.
	IPIStageRetry
	// IPIStageInject: injection latency into a running target.
	IPIStageInject
	// IPIStagePending: queued on a blocked or preempted target until
	// drainPending (the VTD case) — the End remainder.
	IPIStagePending
)

// lock_acquire stages: where a contended guest lock acquisition stalled.
const (
	// LockStageSpin: burning PLE windows on a pCPU (the final segment of a
	// live spinner's grant included).
	LockStageSpin = iota
	// LockStagePreempt: the spinner's vCPU was descheduled mid-spin — the
	// lock-holder-preemption wait the paper's micro-sliced pool attacks.
	LockStagePreempt
	// LockStageSleep: parked on a sleeping lock until the holder's release
	// wakes the waiter.
	LockStageSleep
)

// disk_io stages.
const (
	// DiskStageQueue: waiting in the virtual disk's submission queue for a
	// free device slot.
	DiskStageQueue = iota
	// DiskStageService: device service time — the End remainder.
	DiskStageService
)

// net_rx stages: the Figure 2 delivery chain, decomposed.
const (
	// NetStageRing: sitting in the NIC ring until the guest's IRQ handler
	// fetches the packet.
	NetStageRing = iota
	// NetStageSoftirq: hardirq + softirq processing up to socket delivery.
	NetStageSoftirq
	// NetStageSock: in the socket buffer until the application consumes it
	// — the End remainder.
	NetStageSock
)

// recover stages.
const (
	// RecoverStageRepair: the whole detect→reconverge episode (single
	// stage).
	RecoverStageRepair = iota
)

// request stages: where an open-loop serving request's end-to-end latency
// went. The first three mirror the net_rx delivery chain; the last two are
// the guest-side serving half.
const (
	// ReqStageRing: intended arrival to the guest IRQ handler's fetch —
	// NIC ring residency plus any pIRQ/vIRQ delivery delay.
	ReqStageRing = iota
	// ReqStageSoftirq: hardirq + softirq processing up to socket delivery.
	ReqStageSoftirq
	// ReqStageSock: in the socket buffer until a server thread consumes it
	// (includes the server's own queueing delay while busy).
	ReqStageSock
	// ReqStageService: consume to the dispatch of the reply op — the
	// request's compute/lock/syscall service profile.
	ReqStageService
	// ReqStageReply: the reply's transmit-path cost — the End remainder.
	ReqStageReply
)

// spanStageNames orders each kind's stages; index == the stage constants
// above.
var spanStageNames = [numSpanKinds][]string{
	SpanWakeDispatch: {"boost_wait", "runq_wait", "micro_wait", "dispatch"},
	SpanIPIDeliver:   {"send", "retry", "inject", "pending"},
	SpanLockAcquire:  {"spin", "preempt_wait", "sleep_wait"},
	SpanDiskIO:       {"queue_wait", "service"},
	SpanNetRx:        {"ring_wait", "softirq", "sock_wait"},
	SpanRecover:      {"repair"},
	SpanRequest:      {"ring_wait", "softirq", "sock_wait", "service", "reply"},
}

// spanFinalStage is the stage that absorbs the End remainder (time since the
// last explicit Stage mark), making the conservation law hold by
// construction.
var spanFinalStage = [numSpanKinds]uint8{
	SpanWakeDispatch: WakeStageDispatch,
	SpanIPIDeliver:   IPIStagePending,
	SpanLockAcquire:  LockStageSpin,
	SpanDiskIO:       DiskStageService,
	SpanNetRx:        NetStageSock,
	SpanRecover:      RecoverStageRepair,
	SpanRequest:      ReqStageReply,
}

// StageNames lists kind k's stage names in attribution order (nil for an
// unknown kind). The returned slice is a copy.
func StageNames(k SpanKind) []string {
	if k >= numSpanKinds {
		return nil
	}
	out := make([]string, len(spanStageNames[k]))
	copy(out, spanStageNames[k])
	return out
}

// Stage credits the time since ref's last stage mark (or its Begin) to the
// given stage and advances the mark to now. A zero or closed ref, or a stage
// out of range for the span's kind, is a no-op. Allocation-free.
func (o *Observer) Stage(ref SpanRef, stage int, now simtime.Time) {
	idx := int32(ref) - 1
	if idx < 0 || int(idx) >= len(o.spans.slots) {
		return
	}
	s := &o.spans.slots[idx]
	if !s.live || stage < 0 || stage >= len(spanStageNames[s.kind]) {
		return
	}
	s.stages[stage] += now - s.mark
	s.mark = now
}

// SpanLedger reports kind k's exact closed-span time budget: the summed
// duration of every closed span and its per-stage decomposition (indexed
// like StageNames). internal/check asserts total == Σ stages after every
// conformance run. Cold path.
func (o *Observer) SpanLedger(k SpanKind) (total int64, stages []int64) {
	if k >= numSpanKinds {
		return 0, nil
	}
	stages = make([]int64, len(spanStageNames[k]))
	copy(stages, o.stageTotal[k][:len(stages)])
	return o.spanTotal[k], stages
}

// OpenSpansByKind counts the currently open spans of every kind, indexed
// like SpanKinds(). Σ over kinds always equals OpenSpanCount().
func (o *Observer) OpenSpansByKind() []int {
	out := make([]int, numSpanKinds)
	copy(out, o.spans.openByKind[:])
	return out
}

// SkewStageLedger deliberately corrupts the stage ledger of (k, stage) by d
// without touching the span ledger, violating the stage conservation law.
// Test-only: internal/check uses it to prove the law has teeth.
func (o *Observer) SkewStageLedger(k SpanKind, stage int, d simtime.Duration) {
	if k >= numSpanKinds || stage < 0 || stage >= len(spanStageNames[k]) {
		return
	}
	o.stageTotal[k][stage] += int64(d)
}

// wakeStageFor maps the (pool, state) a woken vCPU waited in to the
// wake_dispatch stage that wait belongs to.
func wakeStageFor(micro bool, st State) int {
	switch {
	case micro:
		return WakeStageMicro
	case st == StateBoosted:
		return WakeStageBoost
	default:
		return WakeStageRunq
	}
}

// sharesPct converts exact per-stage totals into percentages of their sum at
// 0.1% granularity, using largest-remainder rounding so the rounded shares
// always sum to exactly 100.0 (the blame-line contract). All-zero totals
// yield all-zero shares.
func sharesPct(totals []int64) []float64 {
	out := make([]float64, len(totals))
	var sum int64
	for _, t := range totals {
		sum += t
	}
	if sum <= 0 {
		return out
	}
	// Work in tenths of a percent: 1000 units to distribute.
	tenths := make([]int64, len(totals))
	rems := make([]int64, len(totals))
	var given int64
	for i, t := range totals {
		// t/sum * 1000, with the remainder kept for the second pass.
		tenths[i] = t * 1000 / sum
		rems[i] = t*1000 - tenths[i]*sum
		given += tenths[i]
	}
	for given < 1000 {
		// Hand the leftover tenths to the largest remainders (ties to the
		// earliest stage, keeping the result deterministic).
		best := -1
		for i := range rems {
			if rems[i] > 0 && (best < 0 || rems[i] > rems[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		tenths[best]++
		rems[best] = 0
		given++
	}
	for i := range out {
		out[i] = float64(tenths[i]) / 10
	}
	return out
}
