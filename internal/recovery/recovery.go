// Package recovery implements the self-healing supervisor: a periodic,
// deterministic detect→repair loop over the hypervisor's scheduling state.
//
// Where the auditor (internal/hv/audit.go) only *reports* damage, the
// supervisor repairs it. Each walk — an owned simtime event re-armed in
// place, allocation-free, repairs included, once its episode table,
// re-drive list and repair ring have grown — looks for
// three damage classes the harsh fault plans inflict:
//
//   - starved runnable vCPUs: runnable-but-undispatched beyond StarveBound
//     (keyed on VCPU.RunnableSince, the same episode key the auditor uses).
//     Repairs escalate one rung per walk: credit re-grant with a wake-style
//     boost, forced re-home off a dead or unreachable pinned pCPU
//     (RePin(-1)), then ForceDispatch — each episode bounded by
//     maxEpisodeRepairs so repair itself cannot ping-pong.
//   - lost IPIs: entries in the hypervisor's LostIPI ledger are re-driven
//     with exponential backoff (base << redrives, clamped), so an IPI lost
//     again under ongoing chaos retries ever more patiently and drains
//     promptly once the fault plan quiesces.
//   - capacity loss: fewer online pCPUs than at Attach. Under loss the
//     supervisor auto-shrinks the micro pool (SetMicroCount) while it
//     out-sizes the normal pool, and regrows it when capacity returns;
//     both directions share the maxPoolRepairs budget, which bounds any
//     tug-of-war with the adaptive pool controller.
//
// Every detection and repair is a structured trace.Repair: counted through
// interned metrics counters, emitted as a trace.KindRepair record, retained
// in a bounded ring that the flight recorder includes in its dumps, and a
// starvation episode carries an obs SpanRecover span measuring detection→
// reconvergence. The walk is strictly deterministic — simtime-driven with
// no wall-clock or map-iteration dependence — so a run with a supervisor
// is as reproducible as one without, and a supervisor that never needs to
// repair anything leaves scheduling bit-identical.
package recovery

import (
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
}

// Spec is a supervisor configuration in ms as float64s. The public facade
// exposes it as microsliced.RecoveryPlan, and the conformance harness's
// recovery scenarios embed it. Config lowers it. The zero value uses the
// defaults.
type Spec struct {
	// IntervalMs is the supervision walk period (0: the scheduler tick).
	IntervalMs float64 `json:"interval_ms,omitempty"`
	// StarveBoundMs is how long a vCPU may sit runnable-but-undispatched
	// before the supervisor declares starvation (0: 50ms).
	StarveBoundMs float64 `json:"starve_bound_ms"`
}

// Config lowers the spec to a Config.
func (s Spec) Config() Config {
	return Config{
		Interval:    simtime.Duration(s.IntervalMs * float64(simtime.Millisecond)),
		StarveBound: simtime.Duration(s.StarveBoundMs * float64(simtime.Millisecond)),
	}
}

const (
	// ipiBackoffBase is the redrive delay after a first loss; each further
	// loss of the same interrupt doubles it.
	ipiBackoffBase = 50 * simtime.Microsecond
	// ipiBackoffMax clamps the redrive backoff.
	ipiBackoffMax = 5 * simtime.Millisecond
	// maxEpisodeRepairs caps repairs per starvation episode.
	maxEpisodeRepairs = 6
	// maxPoolRepairs is the total micro-pool shrink+regrow budget for the
	// run — the bound that prevents pool-size ping-pong.
	maxPoolRepairs = 8
	// repairDepth is the size of the supervisor's repair retention ring;
	// its Total keeps the exact count regardless of ring wrap.
	repairDepth = 32
)

// kindWalk is the event kind of the supervisor's periodic walk.
var kindWalk = simtime.NewKind("recover")

func (c Config) withDefaults(hcfg hv.Config) Config {
	if c.Interval <= 0 {
		c.Interval = hcfg.Tick
	}
	if c.StarveBound <= 0 {
		c.StarveBound = 50 * simtime.Millisecond
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

	tick simtime.Event // owned: the periodic walk, re-armed in place
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
		poolBudget:     maxPoolRepairs,
		Repairs:        trace.NewRing[trace.Repair](repairDepth),
	}
	for k := trace.RepairKind(0); k < trace.NumRepairKinds; k++ {
		s.hot[k] = h.Counters.Counter("recovery." + k.String())
	}
	if h.Obs != nil {
		h.Obs.Repairs = &s.Repairs
	}
	h.Clock.Bind(&s.tick, kindWalk, func() {
		s.walk()
		s.tick.Arm(s.cfg.Interval)
	})
	s.tick.Arm(s.cfg.Interval)
	return s
}

// MTTR returns the quiesce→last-repair convergence time: how long after
// the fault plan went quiet the supervisor still had repairing to do.
// Zero when every repair predates the quiesce point.
func (s *Supervisor) MTTR(quiesce simtime.Time) simtime.Duration {
	if s.lastRepair > quiesce {
		return s.lastRepair - quiesce
	}
	return 0
}

// event records one detection/repair: ring, counter, trace. arg0 and arg1
// are the kind's numbers (trace.Repair.Arg0, Arg1).
func (s *Supervisor) event(now simtime.Time, kind trace.RepairKind, v *hv.VCPU, arg0, arg1 int64) {
	s.hot[kind].Inc()
	if kind.IsRepair() {
		s.lastRepair = now
	}
	ev := trace.Repair{Time: now, Kind: kind, Dom: -1, VCPU: -1, Arg0: arg0, Arg1: arg1}
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
			s.event(now, trace.DetectStarve, v, int64(now-v.RunnableSince()), int64(s.cfg.StarveBound))
		}
		if e.repairs < maxEpisodeRepairs {
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
		s.event(now, trace.RepairCredit, v, 0, 0)
		return
	case 1:
		e.step = 2
		if pin := v.PinnedTo(); pin >= 0 && !v.OnMicro() {
			target := s.h.PCPU(pin)
			if target.Offline() || target.Pool() != v.Pool() {
				s.h.RePin(v, -1)
				e.repairs++
				s.event(now, trace.RepairUnpin, v, int64(pin), 0)
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
				s.event(now, trace.RepairForceDispatch, v, int64(p.ID), 0)
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
				s.event(now, trace.DetectLostIPI, e.Dst, int64(e.Vec), int64(e.Time))
			}
		}
		if now >= e.Time+simtime.Time(backoff(e.Redrives)) {
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
			s.event(now, trace.RepairIPIRedrive, dst, int64(redrives+1), 0)
		}
		lost = s.h.LostIPIs()
	}
}

// backoff returns the redrive delay after the given number of completed
// redrives: ipiBackoffBase << n, clamped to ipiBackoffMax.
func backoff(redrives int) simtime.Duration {
	d := ipiBackoffBase
	for i := 0; i < redrives && d < ipiBackoffMax; i++ {
		d <<= 1
	}
	if d > ipiBackoffMax {
		d = ipiBackoffMax
	}
	return d
}

func (s *Supervisor) checkCapacity(now simtime.Time) {
	online := s.h.OnlinePCPUs()
	switch {
	case online < s.baselineOnline:
		if !s.capLost {
			s.capLost = true
			s.event(now, trace.DetectCapacityLoss, nil, int64(online), int64(s.baselineOnline))
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
				s.event(now, trace.RepairShrinkMicro, nil, int64(before), int64(got))
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
				s.event(now, trace.RepairRegrowMicro, nil, int64(before), int64(got))
			} else {
				s.shrunk = 0 // cannot regrow (pool constraints); stop trying
			}
		}
	}
}
