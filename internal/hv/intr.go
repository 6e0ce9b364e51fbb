package hv

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// SendVIPI relays a virtual inter-processor interrupt from one vCPU of a
// domain to a sibling. Delivery semantics are the crux of the
// virtual-time-discontinuity problem:
//
//   - target Running:  injected after the IPI latency;
//   - target Blocked:  queued and the vCPU is woken (BOOST-eligible);
//   - target Runnable: queued — and *not* boosted, because Xen only boosts
//     wakeups of blocked vCPUs. The IPI waits for the target's next
//     scheduling turn, which under a 30 ms slice can be tens of ms away.
func (h *Hypervisor) SendVIPI(src, dst *VCPU, vec Vector, data uint64) {
	if src.Dom != dst.Dom {
		panic(fmt.Sprintf("hv: cross-domain IPI %v -> %v", src, dst))
	}
	h.hot.vipiSent.Inc()
	src.Dom.hot.vipiSent.Inc()
	h.emit(trace.KindVIPI, src, uint64(vec), uint64(dst.Idx))
	if h.Hooks.OnVIPIRelay != nil {
		h.Hooks.OnVIPIRelay(src, dst, vec)
	}
	// The ipi_deliver span opens at the send and rides the interrupt through
	// retries and pending queues to the target's OnInterrupt, so its latency
	// includes the full virtual-time discontinuity, not just injection cost.
	var span obs.SpanRef
	if h.Obs != nil {
		span = h.Obs.Begin(obs.SpanIPIDeliver, int16(dst.DomID), int16(dst.Idx), uint64(vec), h.Clock.Now())
	}
	if h.Hooks.IPIFault != nil {
		h.sendVIPIFaulty(dst, vec, data, 0, 0, span)
		return
	}
	h.deliver(dst, vec, data, span)
}

// LostIPI is one virtual IPI dropped past the retry limit under a fault
// plan that opted into outright loss (Hooks.IPILoss). The entry keeps
// everything needed to re-drive the interrupt later — including its open
// ipi_deliver span, so the eventual delivery closes the span with the full
// loss-to-redelivery latency.
type LostIPI struct {
	// Seq uniquely identifies the ledger entry (monotonic per run).
	Seq uint64
	// Time is the instant the interrupt was declared lost (this round).
	Time simtime.Time
	Dst  *VCPU
	Vec  Vector
	Data uint64
	// Redrives counts completed re-drives of this interrupt: a redriven
	// IPI that is lost again re-enters the ledger with Redrives+1, which
	// the recovery supervisor uses for exponential backoff.
	Redrives int

	span obs.SpanRef
}

// sendVIPIFaulty consults the fault hook for each delivery attempt. A
// dropped IPI is retried after IPIRetryDelay (the guest's IPI-wait path
// resending, as Linux's csd-lock watchdog eventually does); after
// IPIRetryLimit drops the interrupt is delivered unconditionally — unless
// Hooks.IPILoss opts into real loss, in which case the interrupt lands in
// the LostIPI ledger for the recovery supervisor to re-drive instead of
// silently wedging the guest.
func (h *Hypervisor) sendVIPIFaulty(dst *VCPU, vec Vector, data uint64, attempt, redrives int, span obs.SpanRef) {
	delay, drop := h.Hooks.IPIFault(vec)
	if drop && attempt < h.Cfg.IPIRetryLimit {
		h.hot.vipiDropped.Inc()
		r := h.takeIRQ(irqRetry)
		r.dst, r.vec, r.data, r.span = dst, vec, data, span
		r.attempt, r.redrives = attempt+1, redrives
		r.ev.Arm(h.Cfg.IPIRetryDelay)
		return
	}
	if drop && h.Hooks.IPILoss != nil && h.Hooks.IPILoss(vec) {
		h.lostSeq++
		h.lostIPIs = append(h.lostIPIs, LostIPI{
			Seq: h.lostSeq, Time: h.Clock.Now(),
			Dst: dst, Vec: vec, Data: data, Redrives: redrives,
			span: span,
		})
		h.hot.vipiLost.Inc()
		h.emit(trace.KindIPILost, dst, uint64(vec), uint64(redrives))
		return
	}
	if attempt > 0 {
		h.hot.vipiRetried.Inc()
	}
	if delay > 0 {
		r := h.takeIRQ(irqDelay)
		r.dst, r.vec, r.data, r.span = dst, vec, data, span
		r.ev.Arm(delay)
		return
	}
	h.deliver(dst, vec, data, span)
}

// LostIPIs returns the current lost-interrupt ledger (live slice; do not
// mutate). Entries leave the ledger only via RedriveLostIPI.
func (h *Hypervisor) LostIPIs() []LostIPI { return h.lostIPIs }

// LostIPICount returns the number of interrupts currently lost.
func (h *Hypervisor) LostIPICount() int { return len(h.lostIPIs) }

// RedriveLostIPI removes ledger entry seq and re-sends the interrupt from
// retry attempt zero with its Redrives count incremented. If the fault hook
// drops it past the limit again it re-enters the ledger (new Seq, new loss
// time); after quiesce the hook stops dropping and the redrive delivers.
// Returns false if seq is not in the ledger.
func (h *Hypervisor) RedriveLostIPI(seq uint64) bool {
	for i := range h.lostIPIs {
		if h.lostIPIs[i].Seq != seq {
			continue
		}
		e := h.lostIPIs[i]
		n := copy(h.lostIPIs[i:], h.lostIPIs[i+1:])
		h.lostIPIs = h.lostIPIs[:i+n]
		// Ledger dwell time (loss to redrive) is retry/backoff time.
		if h.Obs != nil {
			h.Obs.Stage(e.span, obs.IPIStageRetry, h.Clock.Now())
		}
		if h.Hooks.IPIFault != nil {
			h.sendVIPIFaulty(e.Dst, e.Vec, e.Data, 0, e.Redrives+1, e.span)
		} else {
			h.deliver(e.Dst, e.Vec, e.Data, e.span)
		}
		return true
	}
	return false
}

// InjectPIRQ is called by device models (internal/vnet) when a physical
// interrupt arrives. The hypervisor spends PIRQCost handling the VMEXIT and
// then forwards a virtual IRQ to the domain's designated IRQ vCPU, which it
// resolves when the cost has elapsed.
func (h *Hypervisor) InjectPIRQ(d *Domain, vec Vector, data uint64) {
	h.hot.pirq.Inc()
	h.emit(trace.KindPIRQ, nil, uint64(vec), uint64(d.ID))
	r := h.takeIRQ(irqPIRQ)
	r.dom, r.dst, r.vec, r.data = d, nil, vec, data
	r.ev.Arm(h.Cfg.PIRQCost)
}

// InjectPIRQTo routes a device interrupt to a specific vCPU — per-queue
// MSI-X semantics (e.g. an NVMe completion queue bound to the submitting
// CPU) — applying the same hypervisor handling cost and relay hook as
// InjectPIRQ.
func (h *Hypervisor) InjectPIRQTo(target *VCPU, vec Vector, data uint64) {
	h.hot.pirq.Inc()
	h.emit(trace.KindPIRQ, target, uint64(vec), uint64(target.DomID))
	r := h.takeIRQ(irqPIRQ)
	r.dom, r.dst, r.vec, r.data = nil, target, vec, data
	r.ev.Arm(h.Cfg.PIRQCost)
}

// relayVIRQ forwards a physical interrupt, its handling cost spent, to the
// domain's IRQ vCPU (d non-nil) or to target as a virtual IRQ.
func (h *Hypervisor) relayVIRQ(d *Domain, target *VCPU, vec Vector, data uint64) {
	if d != nil {
		if d.IRQVCPU < 0 || d.IRQVCPU >= len(d.VCPUs) {
			panic(fmt.Sprintf("hv: domain %s has bad IRQ vCPU %d", d.Name, d.IRQVCPU))
		}
		target = d.VCPUs[d.IRQVCPU]
	}
	target.virqRecv++
	h.hot.virqSent.Inc()
	target.Dom.hot.virqSent.Inc()
	h.emit(trace.KindVIRQ, target, uint64(vec), 0)
	if h.Hooks.OnVIRQRelay != nil {
		h.Hooks.OnVIRQRelay(target)
	}
	h.deliver(target, vec, data, 0)
}

// deliver routes an interrupt to dst according to its scheduling state.
func (h *Hypervisor) deliver(dst *VCPU, vec Vector, data uint64, span obs.SpanRef) {
	// Everything between the send (or the last retry) and the delivery
	// decision — emulation cost, wire delay — is sender-side time.
	if h.Obs != nil {
		h.Obs.Stage(span, obs.IPIStageSend, h.Clock.Now())
	}
	switch dst.state {
	case StateRunning:
		r := h.takeIRQ(irqInject)
		r.dst, r.vec, r.data, r.span = dst, vec, data, span
		r.ev.Arm(h.Cfg.IPILatency)
	case StateBlocked:
		dst.pending.Push(PendingIRQ{Vec: vec, Data: data, Span: span})
		h.Wake(dst, true)
	case StateRunnable:
		// The VTD case: the interrupt sits until the next scheduling turn.
		dst.pending.Push(PendingIRQ{Vec: vec, Data: data, Span: span})
		h.hot.irqDeferred.Inc()
		dst.Dom.hot.irqDeferred.Inc()
	}
}

// irqKind names what a pendingIRQ is waiting for. Each kind has its own
// event label and free list, so a record's owned event is bound once, to
// its kind's label, for life.
type irqKind uint8

const (
	irqInject irqKind = iota // injection latency to a running vCPU
	irqPIRQ                  // hypervisor handling of a physical IRQ
	irqRetry                 // backoff before resending a dropped IPI
	irqDelay                 // fault-injected IPI delivery delay
	numIRQKinds
)

var irqLabels = [numIRQKinds]string{
	irqInject: "inject",
	irqPIRQ:   "pirq",
	irqRetry:  "ipi-retry",
	irqDelay:  "ipi-delay",
}

// pendingIRQ is an interrupt in flight between two steps of its delivery:
// the injection latency to a running vCPU, the handling cost of a physical
// IRQ, a dropped IPI's retry backoff or a fault-injected delay. Records
// live on the hypervisor's per-kind free lists, each with its own event
// bound once to fire, so delivering device interrupts and IPIs, faulty or
// not, allocates nothing in steady state. Arm draws the sequence number
// AfterLabeled would have, so events fire in the same order as with a
// fresh closure per interrupt.
type pendingIRQ struct {
	h    *Hypervisor
	kind irqKind
	dom  *Domain // irqPIRQ from InjectPIRQ: route to its IRQ vCPU at fire time
	dst  *VCPU
	data uint64
	span obs.SpanRef
	vec  Vector
	// attempt and redrives are an irqRetry's sendVIPIFaulty state.
	attempt, redrives int
	next              *pendingIRQ   // free-list link
	ev                simtime.Event // owned, bound to fire at allocation
}

// takeIRQ takes a record of kind k off its free list. The caller sets
// every field its kind reads, then arms the record's event.
func (h *Hypervisor) takeIRQ(k irqKind) *pendingIRQ {
	r := h.freeIRQ[k]
	if r == nil {
		return h.newIRQ(k)
	}
	h.freeIRQ[k] = r.next
	return r
}

// newIRQ allocates a record of kind k and binds its event for life.
func (h *Hypervisor) newIRQ(k irqKind) *pendingIRQ {
	r := &pendingIRQ{h: h, kind: k}
	h.Clock.Bind(&r.ev, irqLabels[k], r.fire)
	return r
}

// fire copies the interrupt out and returns the record to its free list
// before acting on it: every next step can re-enter takeIRQ, which then
// reuses this record instead of allocating another.
func (r *pendingIRQ) fire() {
	h, kind, dom, dst, vec, data, span := r.h, r.kind, r.dom, r.dst, r.vec, r.data, r.span
	attempt, redrives := r.attempt, r.redrives
	r.next, h.freeIRQ[kind] = h.freeIRQ[kind], r
	switch kind {
	case irqInject:
		h.injectOrQueue(dst, vec, data, span)
	case irqPIRQ:
		h.relayVIRQ(dom, dst, vec, data)
	case irqRetry:
		// The backoff the dropped attempt cost is retry time, not send
		// time: attribute it before the next attempt begins.
		if h.Obs != nil {
			h.Obs.Stage(span, obs.IPIStageRetry, h.Clock.Now())
		}
		h.sendVIPIFaulty(dst, vec, data, attempt, redrives, span)
	case irqDelay:
		h.deliver(dst, vec, data, span)
	}
}

// injectOrQueue fires OnInterrupt if dst is still running with the guest
// active, otherwise queues (the state may have changed during the
// injection latency).
func (h *Hypervisor) injectOrQueue(dst *VCPU, vec Vector, data uint64, span obs.SpanRef) {
	// The injection latency just elapsed, whether or not the target is
	// still running; the End remainder would otherwise misattribute it as
	// pending-queue time.
	if h.Obs != nil {
		h.Obs.Stage(span, obs.IPIStageInject, h.Clock.Now())
	}
	if dst.state == StateRunning && !dst.pcpu.ctxsw.Pending() {
		if h.Obs != nil {
			h.Obs.End(span, h.Clock.Now())
		}
		dst.Guest.OnInterrupt(h.Clock.Now(), vec, data)
		return
	}
	dst.pending.Push(PendingIRQ{Vec: vec, Data: data, Span: span})
	if dst.state == StateBlocked {
		h.Wake(dst, true)
	}
}

// drainPending delivers queued interrupts to a vCPU that just started
// running. Each OnInterrupt may change guest state; delivery stops if the
// guest yields or blocks mid-drain.
func (h *Hypervisor) drainPending(v *VCPU) {
	for v.pending.Len() > 0 && v.state == StateRunning {
		// An O(1) pop: the backlog of a vCPU that was off its pCPU can be
		// hundreds deep (a NIC re-asserts every 100 µs of a 30 ms slice), so
		// a copy-down pop would make the drain quadratic.
		irq := v.pending.Pop()
		if h.Obs != nil {
			h.Obs.End(irq.Span, h.Clock.Now())
		}
		v.Guest.OnInterrupt(h.Clock.Now(), irq.Vec, irq.Data)
	}
}

// DeliverLocal queues an interrupt directly to a vCPU, bypassing domain
// routing. The guest model uses it for per-vCPU timer interrupts.
func (h *Hypervisor) DeliverLocal(dst *VCPU, vec Vector, data uint64) {
	h.deliver(dst, vec, data, 0)
}
