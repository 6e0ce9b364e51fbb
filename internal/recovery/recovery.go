// Package recovery implements the self-healing supervisor: a periodic,
// deterministic detect→repair loop over the hypervisor's scheduling state.
//
// Where the auditor (internal/hv/audit.go) only *reports* damage, the
// supervisor repairs it. Each walk — a simtime event chained through
// Clock.Reschedule, zero-alloc while the machine is healthy — looks for
// three damage classes the harsh fault plans inflict:
//
//   - starved runnable vCPUs: runnable-but-undispatched beyond StarveBound
//     (keyed on VCPU.RunnableSince, the same episode key the auditor uses).
//     Repairs escalate one rung per walk: credit re-grant with a wake-style
//     boost, forced re-home off a dead or unreachable pinned pCPU
//     (RePin(-1)), then ForceDispatch — each episode bounded by
//     MaxEpisodeRepairs so repair itself cannot ping-pong.
//   - lost IPIs: entries in the hypervisor's LostIPI ledger are re-driven
//     with exponential backoff (base << redrives, clamped), so an IPI lost
//     again under ongoing chaos retries ever more patiently and drains
//     promptly once the fault plan quiesces.
//   - capacity loss: fewer online pCPUs than at Attach. Under loss the
//     supervisor auto-shrinks the micro pool (SetMicroCount) while it
//     out-sizes the normal pool, and regrows it when capacity returns;
//     both directions share the MaxPoolRepairs budget, which bounds any
//     tug-of-war with the adaptive pool controller.
//
// Every detection and repair is a structured trace.Repair: counted through
// interned metrics handles, emitted as a trace.KindRepair record, retained
// in a bounded ring that the flight recorder includes in its dumps, and a
// starvation episode carries an obs SpanRecover span measuring detection→
// reconvergence. The walk is strictly deterministic — simtime-driven with
// no wall-clock or map-iteration dependence — so a run with a supervisor
// is as reproducible as one without, and a supervisor that never needs to
// repair anything leaves scheduling bit-identical.
package recovery

import (
	"strconv"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// Config tunes the supervisor. Zero values select defaults.
type Config struct {
	// Interval is the walk period (default: the scheduler tick).
	Interval simtime.Duration
	// StarveBound is the runnable-undispatched wait that counts as
	// starvation (default 50ms — far above any healthy dispatch latency,
	// far below the auditor's 1s horizon so repair precedes report).
	StarveBound simtime.Duration
	// IPIBackoffBase is the redrive delay after a first loss; each further
	// loss of the same interrupt doubles it (default 50µs).
	IPIBackoffBase simtime.Duration
	// IPIBackoffMax clamps the redrive backoff (default 5ms).
	IPIBackoffMax simtime.Duration
	// MaxEpisodeRepairs caps repairs per starvation episode (default 6).
	MaxEpisodeRepairs int
	// MaxPoolRepairs is the total micro-pool shrink+regrow budget for the
	// run (default 8) — the bound that prevents pool-size ping-pong.
	MaxPoolRepairs int
}

// repairDepth is the size of the supervisor's repair retention ring; its
// Total keeps the exact count regardless of ring wrap.
const repairDepth = 32

func (c Config) withDefaults(hcfg hv.Config) Config {
	if c.Interval <= 0 {
		c.Interval = hcfg.Tick
	}
	if c.StarveBound <= 0 {
		c.StarveBound = 50 * simtime.Millisecond
	}
	if c.IPIBackoffBase <= 0 {
		c.IPIBackoffBase = 50 * simtime.Microsecond
	}
	if c.IPIBackoffMax <= 0 {
		c.IPIBackoffMax = 5 * simtime.Millisecond
	}
	if c.MaxEpisodeRepairs <= 0 {
		c.MaxEpisodeRepairs = 6
	}
	if c.MaxPoolRepairs <= 0 {
		c.MaxPoolRepairs = 8
	}
	return c
}

// episode tracks one vCPU's ongoing starvation: keyed on the vCPU's
// RunnableSince stamp (a new stamp is a new episode), with the escalation
// rung, the repair budget spent, and the open reconvergence span.
type episode struct {
	active  bool
	since   simtime.Time
	step    int
	repairs int
	span    obs.SpanRef
}

// Supervisor is the armed detect→repair loop. Construct with Attach.
type Supervisor struct {
	h   *hv.Hypervisor
	cfg Config

	epi []episode // indexed by VCPU.ID, grown on first walk

	baselineOnline int
	capLost        bool
	shrunk         int // micro slots removed under capacity loss, to regrow
	poolBudget     int

	lastSeenLost uint64 // highest LostIPI.Seq already announced
	seqBuf       []uint64

	// Repairs retains the newest detections and repairs, oldest first,
	// with their exact total.
	Repairs    trace.Ring[trace.Repair]
	lastRepair simtime.Time

	hot [trace.NumRepairKinds]*metrics.Counter
}

// Attach arms the supervisor on the hypervisor's clock. Call before
// hv.Start; the first walk runs one interval into the run. When an
// observer is attached, the supervisor registers its repair ring with it,
// so every flight dump carries the recent repairs.
func Attach(h *hv.Hypervisor, cfg Config) *Supervisor {
	s := &Supervisor{
		h:              h,
		cfg:            cfg.withDefaults(h.Cfg),
		baselineOnline: h.OnlinePCPUs(),
		Repairs:        trace.NewRing[trace.Repair](repairDepth),
	}
	s.poolBudget = s.cfg.MaxPoolRepairs
	for k := trace.RepairKind(0); k < trace.NumRepairKinds; k++ {
		s.hot[k] = h.Counters.Handle("recovery." + k.String())
	}
	if h.Obs != nil {
		h.Obs.Repairs = &s.Repairs
	}
	walk := func() {
		s.walk()
		h.Clock.Reschedule(s.cfg.Interval)
	}
	h.Clock.AfterLabeled(s.cfg.Interval, "recover", walk)
	return s
}

// LastRepairTime returns the instant of the most recent repair action
// (zero when the supervisor never had to repair anything).
func (s *Supervisor) LastRepairTime() simtime.Time { return s.lastRepair }

// MTTR returns the quiesce→last-repair convergence time: how long after
// the fault plan went quiet the supervisor still had repairing to do.
// Zero when every repair predates the quiesce point.
func (s *Supervisor) MTTR(quiesce simtime.Time) simtime.Duration {
	if s.lastRepair > quiesce {
		return s.lastRepair - quiesce
	}
	return 0
}

// event records one detection/repair: ring, counter, trace.
func (s *Supervisor) event(now simtime.Time, kind trace.RepairKind, v *hv.VCPU, detail string) {
	s.hot[kind].Inc()
	if kind.IsRepair() {
		s.lastRepair = now
	}
	ev := trace.Repair{Time: now, Kind: kind, Dom: -1, VCPU: -1, Detail: detail}
	var dom, vcpu int16 = -1, -1
	if v != nil {
		ev.Dom, ev.VCPU = v.DomID, v.Idx
		dom, vcpu = int16(v.DomID), int16(v.Idx)
	}
	s.Repairs.Push(ev)
	s.h.Trace.Emit(trace.Record{
		Time: now, Kind: trace.KindRepair,
		Dom: dom, VCPU: vcpu, PCPU: -1,
		Arg0: uint64(kind),
	})
}

// walk is one supervision pass. Healthy machine → reads only, no allocs.
func (s *Supervisor) walk() {
	now := s.h.Clock.Now()
	s.checkStarvation(now)
	s.checkLostIPIs(now)
	s.checkCapacity(now)
}

func (s *Supervisor) checkStarvation(now simtime.Time) {
	vcpus := s.h.VCPUs()
	if len(s.epi) < len(vcpus) {
		s.epi = append(s.epi, make([]episode, len(vcpus)-len(s.epi))...)
	}
	for _, v := range vcpus {
		e := &s.epi[v.ID]
		starving := v.State() == hv.StateRunnable && now-v.RunnableSince() > s.cfg.StarveBound
		if !starving {
			if e.active {
				s.closeEpisode(e, now)
			}
			continue
		}
		if e.active && e.since != v.RunnableSince() {
			// The vCPU ran and re-starved between walks: new episode.
			s.closeEpisode(e, now)
		}
		if !e.active {
			*e = episode{active: true, since: v.RunnableSince()}
			if s.h.Obs != nil {
				e.span = s.h.Obs.Begin(obs.SpanRecover, int16(v.DomID), int16(v.Idx), 0, now)
			}
			s.event(now, trace.DetectStarve, v, "runnable for "+(now-v.RunnableSince()).String()+
				" (> bound "+s.cfg.StarveBound.String()+")")
		}
		if e.repairs < s.cfg.MaxEpisodeRepairs {
			s.repairStarved(now, v, e)
		}
	}
}

// closeEpisode ends a starvation episode: the vCPU was observed dispatched
// (or blocked, or re-starved) — the reconvergence span closes here.
func (s *Supervisor) closeEpisode(e *episode, now simtime.Time) {
	if s.h.Obs != nil {
		s.h.Obs.End(e.span, now)
	}
	*e = episode{}
}

// repairStarved applies one escalation rung per walk:
//
//	0: credit re-grant + wake-style boost (credit starvation);
//	1: unpin, when the pin points at an offline or out-of-pool pCPU the
//	   scheduler can never dispatch on (the dead-pCPU wedge);
//	2+: ForceDispatch onto the first pool pCPU that accepts the vCPU.
func (s *Supervisor) repairStarved(now simtime.Time, v *hv.VCPU, e *episode) {
	switch e.step {
	case 0:
		s.h.RegrantCredits(v, true)
		e.step, e.repairs = 1, e.repairs+1
		s.event(now, trace.RepairCredit, v, "credits re-granted, boosted")
		return
	case 1:
		e.step = 2
		if pin := v.PinnedTo(); pin >= 0 && !v.OnMicro() {
			target := s.h.PCPU(pin)
			if target.Offline() || target.Pool() != v.Pool() {
				s.h.RePin(v, -1)
				e.repairs++
				s.event(now, trace.RepairUnpin, v, "unpinned from unreachable p"+strconv.Itoa(pin))
				return
			}
		}
		// Pin not the problem — fall through to forcing a dispatch now.
		fallthrough
	default:
		pool := v.Pool()
		if pool == nil {
			return
		}
		for _, p := range pool.PCPUs() {
			if s.h.ForceDispatch(p, v) {
				e.repairs++
				s.event(now, trace.RepairForceDispatch, v, "forced onto p"+strconv.Itoa(p.ID))
				return
			}
		}
	}
}

func (s *Supervisor) checkLostIPIs(now simtime.Time) {
	lost := s.h.LostIPIs()
	if len(lost) == 0 {
		return
	}
	s.seqBuf = s.seqBuf[:0]
	for i := range lost {
		e := &lost[i]
		if e.Seq > s.lastSeenLost {
			s.lastSeenLost = e.Seq
			if e.Redrives == 0 {
				// Announce each interrupt once; re-losses of the same one
				// only grow their backoff.
				s.event(now, trace.DetectLostIPI, e.Dst, "vec "+strconv.Itoa(int(e.Vec))+" lost at "+e.Time.String())
			}
		}
		if now >= e.Time+simtime.Time(s.backoff(e.Redrives)) {
			s.seqBuf = append(s.seqBuf, e.Seq)
		}
	}
	for _, seq := range s.seqBuf {
		// Find the entry again (the ledger shifts as redrives remove
		// entries) to label the event before RedriveLostIPI consumes it.
		var dst *hv.VCPU
		redrives := 0
		for i := range lost {
			if lost[i].Seq == seq {
				dst, redrives = lost[i].Dst, lost[i].Redrives
				break
			}
		}
		if s.h.RedriveLostIPI(seq) {
			s.event(now, trace.RepairIPIRedrive, dst, "redrive #"+strconv.Itoa(redrives+1))
		}
		lost = s.h.LostIPIs()
	}
}

// microResize is the detail of a micro-pool repair.
func microResize(before, after int) string {
	return "micro " + strconv.Itoa(before) + " -> " + strconv.Itoa(after)
}

// backoff returns the redrive delay after the given number of completed
// redrives: base << n, clamped to IPIBackoffMax.
func (s *Supervisor) backoff(redrives int) simtime.Duration {
	d := s.cfg.IPIBackoffBase
	for i := 0; i < redrives && d < s.cfg.IPIBackoffMax; i++ {
		d <<= 1
	}
	if d > s.cfg.IPIBackoffMax {
		d = s.cfg.IPIBackoffMax
	}
	return d
}

func (s *Supervisor) checkCapacity(now simtime.Time) {
	online := s.h.OnlinePCPUs()
	switch {
	case online < s.baselineOnline:
		if !s.capLost {
			s.capLost = true
			s.event(now, trace.DetectCapacityLoss, nil, strconv.Itoa(online)+" of "+
				strconv.Itoa(s.baselineOnline)+" pCPUs online")
		}
		// Auto-shrink: under capacity loss the micro pool must not out-size
		// the normal pool (micro cores are reserved for sub-ms critical
		// work; general progress needs the majority). One step per walk.
		if s.poolBudget > 0 && s.h.MicroCount() > 0 &&
			s.h.NormalPool().Size() < s.h.MicroCount() {
			before := s.h.MicroCount()
			s.poolBudget--
			if got := s.h.SetMicroCount(before - 1); got < before {
				s.shrunk++
				s.event(now, trace.RepairShrinkMicro, nil, microResize(before, got))
			}
		}
	default:
		s.capLost = false
		// Capacity restored: return the borrowed slots to the micro pool.
		if s.shrunk > 0 && s.poolBudget > 0 {
			before := s.h.MicroCount()
			s.poolBudget--
			if got := s.h.SetMicroCount(before + 1); got > before {
				s.shrunk--
				s.event(now, trace.RepairRegrowMicro, nil, microResize(before, got))
			} else {
				s.shrunk = 0 // cannot regrow (pool constraints); stop trying
			}
		}
	}
}
