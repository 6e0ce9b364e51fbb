// Package core implements the paper's contribution: flexible micro-sliced
// cores.
//
// A Controller attaches to the hypervisor's yield and interrupt-relay
// hooks. On every yield it reads the yielding vCPU's instruction pointer
// (and, depending on the yield reason, the instruction pointers of the
// domain's preempted sibling vCPUs), resolves them against the guest's
// System.map, and classifies them with the Table-3 whitelist. vCPUs caught
// inside critical OS services are migrated to the micro-sliced cpupool
// (0.1 ms slice) so the suspended service completes within a
// sub-millisecond turnaround, after which the hypervisor moves them home.
//
// The controller also implements the paper's Algorithm 1: a profiling
// phase (10 ms) measures which urgent-event type dominates — pause-loop
// exits, IPI waits, or device IRQs — and sizes the micro pool accordingly
// (iterative search for IPI-dominant phases, a single core otherwise,
// zero cores when the system is uncontended), re-evaluated every epoch.
//
// The decision loop is hardened beyond the paper's pseudocode: the
// zero-core probe is skipped when the previous run phase was busy, the
// iterative search is skipped while its winner has been stable for
// Config.StabilityEpochs consecutive epochs, the search ceiling is clamped
// to the live online-pCPU count (hot-unplug can shrink capacity mid-run),
// and every sizing decision is recorded in a bounded audit ring
// (Decisions) that flows into telemetry, flight dumps and Chrome traces.
package core

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// Mode selects how the micro pool is sized.
type Mode uint8

// Controller modes.
const (
	ModeOff     Mode = iota // vanilla Xen: no detection, no micro pool
	ModeStatic              // fixed micro pool size (paper's static sweeps)
	ModeDynamic             // Algorithm 1 adaptive sizing
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeStatic:
		return "static"
	case ModeDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// Config parameterises the controller.
type Config struct {
	Mode        Mode
	StaticCores int // micro pool size in ModeStatic

	MaxMicroCores   int              // NUM_LIMIT_µCORES for the adaptive search
	ProfileInterval simtime.Duration // Algorithm 1 profile phase (10 ms)
	EpochInterval   simtime.Duration // Algorithm 1 run phase (1000 ms)

	// StabilityEpochs is the search hysteresis: once this many consecutive
	// epochs settle on the same winning pool size, the iterative search is
	// skipped and the stable size reinstated directly until the streak
	// breaks (0 means the default of 3; negative disables the skip).
	StabilityEpochs int

	// DecisionDepth bounds the decision audit ring: the last DecisionDepth
	// sizing decisions are retained, with their profiling samples (0 means
	// the default of 256).
	DecisionDepth int

	// PreciseSelection restricts sibling migration to vCPUs whose RIP
	// classifies as a critical service. Disabling it migrates any
	// preempted sibling (ablation D1).
	PreciseSelection bool

	// UserCS enables the paper's §4.4 extension: user-level critical
	// regions registered through RegisterUserRegions classify as critical
	// and are accelerated like kernel services.
	UserCS bool
}

// DefaultConfig returns the paper's dynamic configuration.
func DefaultConfig() Config {
	return Config{
		Mode:             ModeDynamic,
		MaxMicroCores:    3,
		ProfileInterval:  10 * simtime.Millisecond,
		EpochInterval:    1000 * simtime.Millisecond,
		StabilityEpochs:  defaultStabilityEpochs,
		PreciseSelection: true,
	}
}

// Defaults applied by Attach when the corresponding Config field is zero.
const (
	defaultStabilityEpochs = 3
	defaultDecisionDepth   = 256
)

// StaticConfig returns a static configuration with n micro cores.
func StaticConfig(n int) Config {
	c := DefaultConfig()
	c.Mode = ModeStatic
	c.StaticCores = n
	return c
}

// Controller is the micro-sliced-core mechanism.
type Controller struct {
	h        *hv.Hypervisor
	cfg      Config
	Counters *metrics.Set

	// doms holds each domain's detector view, indexed by domain ID (IDs
	// are a permutation of 0..n-1, relabelled or not). The controller only
	// ever reads (RIP, symtab) — never guest state — preserving
	// transparency.
	doms []domSyms

	// MicroGauge integrates the micro pool size over time.
	MicroGauge metrics.Gauge

	// Adaptive state (Algorithm 1). The two flags sit together so the
	// struct stays in its allocation size class.
	profileMode bool
	started     bool
	numMicro    int
	urEvents    []trace.Sample
	runDelta    trace.Sample // urgent events observed during the last run phase
	lastSnap    trace.Sample // hypervisor counter totals at the last delta

	// Hysteresis and fault-awareness (controller v2).
	epoch      uint64         // decision rounds begun
	searchCeil int            // live search ceiling of the current round
	stableSize int            // winning size of the last settled search
	stableRun  int            // consecutive epochs settling on stableSize
	stepEv     *simtime.Event // pending adaptive timer (nil while none)

	// Decisions is the audit trail: the newest Config.DecisionDepth sizing
	// decisions plus the exact total.
	Decisions trace.Ring[trace.Decision]

	hot ctrlHot // interned counters for the per-yield/per-relay hooks
}

// domSyms is one domain's detector view: its parsed System.map with every
// symbol's class, its registered user-level critical regions (§4.4
// extension; empty unless Config.UserCS), and the detection hit counts of
// both, indexed like the tables they count.
type domSyms struct {
	tab         *ksym.Table
	classes     []ksym.Class
	hits        []uint64
	userRegions []ksym.UserRegion
	userHits    []uint64
	memo        [ripMemoSlots]ripSlot
}

// ripMemoSlots is the size of a domain's RIP memo. A guest parks its vCPUs
// at a handful of instruction addresses (an op's function body, a lock's
// critical section, the spin and halt loops): the six paper co-runs
// classify 2.59M RIPs drawn from 11 distinct kernel addresses, and with 32
// slots every miss is a first sighting (77 misses, against 145 with 16).
const (
	ripMemoBits  = 5
	ripMemoSlots = 1 << ripMemoBits
)

// ripSlot memoizes one Table.Index result. rip 0 marks an empty slot: no
// kernel address is 0.
type ripSlot struct {
	rip uint64
	idx int32
}

// index is d.tab.Index(rip) through the direct-mapped memo, for a nonzero
// rip. The memo is the hypervisor's own lookup cache, filled from the
// System.map it parsed: the guest sees nothing of it.
func (d *domSyms) index(rip uint64) int {
	s := &d.memo[(rip*0x9e3779b97f4a7c15)>>(64-ripMemoBits)]
	if s.rip != rip {
		s.rip, s.idx = rip, int32(d.tab.Index(rip))
	}
	return int(s.idx)
}

// ctrlHot holds the controller counters incremented on every detection
// event and the hypervisor counters each profile phase samples, resolved
// once in Attach (the adaptive-step counters stay on the string-keyed
// registry: they fire at most once per 10 ms profile phase).
type ctrlHot struct {
	yieldIPI *metrics.Counter // hypervisor's yield.ipi
	yieldPLE *metrics.Counter // hypervisor's yield.ple
	virqSent *metrics.Counter // hypervisor's virq.sent

	triggerPLE  *metrics.Counter
	triggerIPI  *metrics.Counter
	triggerVIRQ *metrics.Counter
	triggerVIPI *metrics.Counter
	migrAttempt *metrics.Counter
	migrOK      *metrics.Counter
}

// Attach builds a controller for h and installs its hooks. Call after all
// domains have been created (their symbol tables are parsed here) and
// before Start. When an observer is attached, the controller registers its
// decision ring with it, so every flight dump carries the recent decisions.
func Attach(h *hv.Hypervisor, cfg Config) (*Controller, error) {
	if cfg.MaxMicroCores <= 0 {
		cfg.MaxMicroCores = 1
	}
	if cfg.StabilityEpochs == 0 {
		cfg.StabilityEpochs = defaultStabilityEpochs
	}
	if cfg.DecisionDepth <= 0 {
		cfg.DecisionDepth = defaultDecisionDepth
	}
	c := &Controller{
		h:        h,
		cfg:      cfg,
		Counters: metrics.NewSet(),
		doms:     make([]domSyms, len(h.Domains())),
		urEvents: make([]trace.Sample, cfg.MaxMicroCores+1),

		Decisions: trace.NewRing[trace.Decision](cfg.DecisionDepth),
	}
	if h.Obs != nil {
		h.Obs.Decisions = &c.Decisions
	}
	c.hot = ctrlHot{
		yieldIPI:    h.Counters.Counter("yield.ipi"),
		yieldPLE:    h.Counters.Counter("yield.ple"),
		virqSent:    h.Counters.Counter("virq.sent"),
		triggerPLE:  c.Counters.Counter("trigger.ple"),
		triggerIPI:  c.Counters.Counter("trigger.ipi"),
		triggerVIRQ: c.Counters.Counter("trigger.virq"),
		triggerVIPI: c.Counters.Counter("trigger.vipi"),
		migrAttempt: c.Counters.Counter("migrate.attempt"),
		migrOK:      c.Counters.Counter("migrate.ok"),
	}
	for _, d := range h.Domains() {
		if len(d.SymbolMap) == 0 {
			return nil, fmt.Errorf("core: domain %s provided no System.map", d.Name)
		}
		// The parse is shared by every controller that sees the same
		// bytes; the hit counts and the RIP memo are this controller's.
		tab, classes, err := ksym.ParseShared(d.SymbolMap)
		if err != nil {
			return nil, fmt.Errorf("core: parsing System.map of %s: %v", d.Name, err)
		}
		c.doms[d.ID] = domSyms{tab: tab, classes: classes, hits: make([]uint64, tab.Len())}
	}
	if cfg.Mode == ModeOff {
		return c, nil
	}
	h.Hooks.OnYield = c.onYield
	// Migrate preempted recipients of relayed vIRQs and reschedule vIPIs
	// (paper §4.2, Figure 2): the mixed-behaviour-vCPU fix that BOOSTING
	// cannot provide.
	h.Hooks.OnVIRQRelay = c.onVIRQRelay
	h.Hooks.OnVIPIRelay = c.onVIPIRelay
	// Hot-unplug can evict micro pCPUs behind the controller's back: the
	// gauge must re-sync in every active mode, and dynamic mode re-profiles.
	h.Hooks.OnCapacityChange = c.onCapacityChange
	return c, nil
}

// Start activates the controller: static mode sizes the pool once; dynamic
// mode launches the Algorithm 1 timer. Call after hv.Start.
func (c *Controller) Start() {
	if c.started {
		panic("core: Start called twice")
	}
	c.started = true
	// Seed the gauge with the live pool size in every mode, so MicroAvg
	// integrates from Start instead of from the first resize (a dynamic run
	// shorter than one profile interval used to report 0).
	c.numMicro = c.h.MicroCount()
	c.MicroGauge.Set(int64(c.h.Clock.Now()), float64(c.numMicro))
	switch c.cfg.Mode {
	case ModeStatic:
		n := c.h.SetMicroCount(c.cfg.StaticCores)
		c.numMicro = n
		c.MicroGauge.Set(int64(c.h.Clock.Now()), float64(n))
	case ModeDynamic:
		c.lastSnap = c.snapshot()
		c.stepEv = c.h.Clock.After(c.cfg.ProfileInterval, c.adaptiveStep)
	}
}

// RegisterUserRegions installs a domain's user-level critical regions
// (the §4.4 interface). Ignored unless Config.UserCS is enabled.
func (c *Controller) RegisterUserRegions(domID int, regions []ksym.UserRegion) {
	if !c.cfg.UserCS || domID < 0 || domID >= len(c.doms) {
		return
	}
	d := &c.doms[domID]
	d.userRegions = append(d.userRegions, regions...)
	d.userHits = append(d.userHits, make([]uint64, len(regions))...)
}

// classify resolves a vCPU's RIP against its domain's symbol table — or,
// for user-space addresses, against the domain's registered user-level
// critical regions — and returns the index of the matching symbol (user
// region for ClassUserCS) with its class, or -1 and ClassNone.
func (c *Controller) classify(v *hv.VCPU) (int, ksym.Class) {
	if v.DomID >= len(c.doms) {
		return -1, ksym.ClassNone // domain created after Attach
	}
	d := &c.doms[v.DomID]
	rip := v.Guest.RIP()
	if !ksym.IsKernelAddr(rip) {
		if i := ksym.UserRegionIndex(d.userRegions, rip); i >= 0 {
			return i, ksym.ClassUserCS
		}
		return -1, ksym.ClassNone
	}
	i := d.index(rip)
	if i < 0 {
		return -1, ksym.ClassNone
	}
	return i, d.classes[i]
}

// ---------------------------------------------------------------------------
// Detection (paper §4.1, §4.2)
// ---------------------------------------------------------------------------

// onYield is the main detection entry point.
func (c *Controller) onYield(v *hv.VCPU, reason hv.YieldReason) {
	switch reason {
	case hv.YieldPLE:
		c.hot.triggerPLE.Inc()
		i, cls := c.classify(v)
		c.hit(v, i, cls)
		// The yielder spins on a lock: accelerate preempted siblings
		// caught inside critical sections (the likely lock holder). The
		// spinner itself stays in the normal pool — running a waiter on a
		// micro core would only burn the pool's capacity.
		c.accelerateSiblings(v, false)
	case hv.YieldIPIWait:
		c.hot.triggerIPI.Inc()
		i, cls := c.classify(v)
		c.hit(v, i, cls)
		if cls == ksym.ClassIPI || cls == ksym.ClassTLB {
			// One-to-many IPI (TLB shootdown): every preempted sibling
			// must run to acknowledge — accelerate them all (§4.2).
			c.accelerateSiblings(v, true)
		}
	default:
		// Halt and other voluntary yields carry no urgency.
	}
}

// migrate moves one vCPU to the micro pool, with bookkeeping.
func (c *Controller) migrate(v *hv.VCPU) {
	if v.State() != hv.StateRunnable || v.OnMicro() {
		return
	}
	c.hot.migrAttempt.Inc()
	if c.h.MigrateToMicro(v) {
		c.hot.migrOK.Inc()
	}
}

// accelerateSiblings migrates preempted siblings of v to the micro pool.
// With all set (TLB case) every preempted sibling goes; otherwise only
// those whose RIP classifies as a critical service (precise selection).
func (c *Controller) accelerateSiblings(v *hv.VCPU, all bool) {
	for _, w := range v.Dom.VCPUs {
		if w == v || w.State() != hv.StateRunnable || w.OnMicro() {
			continue
		}
		i, cls := c.classify(w)
		take := all
		if !take {
			if c.cfg.PreciseSelection {
				take = cls.Critical()
			} else {
				take = true // ablation: imprecise selection
			}
		}
		if !take {
			continue
		}
		c.hit(w, i, cls)
		c.migrate(w)
	}
}

// onVIRQRelay accelerates the recipient of a device IRQ when BOOST cannot
// (the vCPU is runnable-but-preempted: the mixed-behaviour case).
func (c *Controller) onVIRQRelay(target *hv.VCPU) {
	if target.State() != hv.StateRunnable || target.OnMicro() {
		return
	}
	c.hot.triggerVIRQ.Inc()
	c.hot.migrAttempt.Inc()
	if c.h.MigrateToMicro(target) {
		c.hot.migrOK.Inc()
	}
}

// onVIPIRelay accelerates preempted recipients of reschedule IPIs (the
// I/O wakeup chain of Figure 2; call-function IPIs are handled by the
// yield path instead).
func (c *Controller) onVIPIRelay(src, target *hv.VCPU, vec hv.Vector) {
	if vec != hv.VecResched {
		return
	}
	if target.State() != hv.StateRunnable || target.OnMicro() {
		return
	}
	c.hot.triggerVIPI.Inc()
	c.hot.migrAttempt.Inc()
	if c.h.MigrateToMicro(target) {
		c.hot.migrOK.Inc()
	}
}

// hit counts one detection of the symbol (or user region) classify
// resolved for v; unclassified RIPs are not counted.
func (c *Controller) hit(v *hv.VCPU, i int, cls ksym.Class) {
	switch cls {
	case ksym.ClassNone:
	case ksym.ClassUserCS:
		c.doms[v.DomID].userHits[i]++
	default:
		c.doms[v.DomID].hits[i]++
	}
}

// SymbolHits histograms the critical symbols observed at detection time
// (reproduces the paper's Table 3 methodology), summed across domains by
// name; user regions appear as "user:<name>". It builds a new map on every
// call.
func (c *Controller) SymbolHits() map[string]uint64 {
	out := make(map[string]uint64)
	for _, d := range c.doms {
		for i, n := range d.hits {
			if n > 0 {
				out[d.tab.At(i).Name] += n
			}
		}
		for i, n := range d.userHits {
			if n > 0 {
				out["user:"+d.userRegions[i].Name] += n
			}
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Algorithm 1: adaptive micro pool sizing
// ---------------------------------------------------------------------------

func (c *Controller) snapshot() trace.Sample {
	return trace.Sample{
		IPIs: c.hot.yieldIPI.Value(),
		PLEs: c.hot.yieldPLE.Value(),
		IRQs: c.hot.virqSent.Value(),
	}
}

func (c *Controller) delta() trace.Sample {
	now := c.snapshot()
	d := trace.Sample{
		IPIs: now.IPIs - c.lastSnap.IPIs,
		PLEs: now.PLEs - c.lastSnap.PLEs,
		IRQs: now.IRQs - c.lastSnap.IRQs,
	}
	c.lastSnap = now
	return d
}

func (c *Controller) setMicro(n int) {
	c.numMicro = c.h.SetMicroCount(n)
	c.MicroGauge.Set(int64(c.h.Clock.Now()), float64(c.numMicro))
}

// adaptiveStep is the paper's AdaptiveMicroSlicedCores procedure, hardened:
// each invocation inspects the urgent-event statistics gathered since the
// last one and decides the pool size and the next timer interval. The
// zero-core probe is skipped when the last run phase was busy (the paper's
// CheckUrgentEvents history consultation — stripping all acceleration for
// 10 ms under sustained load learns nothing), the search ceiling tracks
// the live online-pCPU count, and every decision enters the audit ring.
func (c *Controller) adaptiveStep() {
	c.stepEv = nil // the firing event's handle is dead (simtime recycles it)
	interval := c.cfg.ProfileInterval
	if !c.profileMode {
		// A run phase ended: begin a new decision round.
		c.epoch++
		c.runDelta = c.delta()
		c.beginRound()
		if c.runDelta.Total() != 0 {
			// Busy epoch: classify straight from the run-phase history
			// instead of probing at zero cores.
			c.Counters.Counter("adaptive.probe_skip").Inc()
			interval = c.decide(c.runDelta)
		} else {
			c.setMicro(0)
			c.profileMode = true
		}
		c.stepEv = c.h.Clock.After(interval, c.adaptiveStep)
		return
	}
	// Gather the statistics of urgent events for numMicro cores.
	cur := c.delta()
	if c.numMicro < len(c.urEvents) {
		c.urEvents[c.numMicro] = cur
	}
	switch {
	case c.numMicro == 0:
		if cur.Total() == 0 {
			cur = c.runDelta // fall back to the run-phase history
		}
		interval = c.decide(cur)
	case c.numMicro < c.searchCeil:
		c.setMicro(c.numMicro + 1)
	default:
		best := c.findBestMicroCount()
		c.setMicro(best)
		reason := trace.DecisionBestPick
		if c.searchCeil < c.cfg.MaxMicroCores && best == c.searchCeil {
			// The live-capacity clamp, not the profile, bounded the answer.
			reason = trace.DecisionCapacityClamp
			c.Counters.Counter("adaptive.capacity_clamp").Inc()
		}
		c.Counters.Counter("adaptive.best_pick").Inc()
		c.record(reason, c.runDelta, c.probes())
		c.noteStable(c.numMicro)
		c.profileMode = false
		interval = c.cfg.EpochInterval
	}
	c.stepEv = c.h.Clock.After(interval, c.adaptiveStep)
}

// decide classifies one busy/idle sample and settles the epoch — or enters
// the iterative search. It installs the chosen pool size, records the
// decision, and returns the next timer interval.
func (c *Controller) decide(cur trace.Sample) simtime.Duration {
	switch {
	case cur.Total() == 0:
		// No urgent events occurred: stay at zero for an epoch.
		c.setMicro(0)
		c.Counters.Counter("adaptive.idle").Inc()
		c.record(trace.DecisionIdle, cur, nil)
		c.stableRun = 0
	case c.searchCeil < 1:
		// Busy, but capacity loss left no pCPU to spare for the micro pool.
		c.setMicro(0)
		c.Counters.Counter("adaptive.capacity_clamp").Inc()
		c.record(trace.DecisionCapacityClamp, cur, nil)
		c.stableRun = 0
	case cur.IPIs >= cur.PLEs && cur.IPIs >= cur.IRQs:
		// IPI-dominant: pool size matters (TLB shootdowns fan out across
		// sibling vCPUs), so search — unless the winner has been stable.
		if c.cfg.StabilityEpochs > 0 && c.stableRun >= c.cfg.StabilityEpochs &&
			c.stableSize >= 1 && c.stableSize <= c.searchCeil {
			c.setMicro(c.stableSize)
			c.Counters.Counter("adaptive.stability_skip").Inc()
			c.record(trace.DecisionStabilitySkip, cur, nil)
			c.noteStable(c.numMicro)
			break
		}
		c.setMicro(1)
		c.Counters.Counter("adaptive.ipi_search").Inc()
		c.record(trace.DecisionIPISearch, cur, nil)
		c.profileMode = true
		return c.cfg.ProfileInterval
	default:
		// Early termination for IRQ- or PLE-dominant cases: one core.
		c.setMicro(1)
		c.Counters.Counter("adaptive.single").Inc()
		c.record(trace.DecisionSingle, cur, nil)
		c.stableRun = 0
	}
	c.profileMode = false
	return c.cfg.EpochInterval
}

// beginRound starts a decision round: the profiling history is zeroed (a
// clamped round must never read samples for pool sizes that no longer
// exist) and the search ceiling is re-derived from the live online-pCPU
// count — GrowMicro always keeps one normal-pool pCPU, so at most
// online−1 cores can be micro-sliced.
func (c *Controller) beginRound() {
	for i := range c.urEvents {
		c.urEvents[i] = trace.Sample{}
	}
	ceil := c.cfg.MaxMicroCores
	if lim := c.h.OnlinePCPUs() - 1; lim < ceil {
		ceil = lim
	}
	if ceil < 0 {
		ceil = 0
	}
	c.searchCeil = ceil
}

// noteStable advances the stable-winner streak after a settled search.
func (c *Controller) noteStable(n int) {
	if n == c.stableSize {
		c.stableRun++
	} else {
		c.stableSize, c.stableRun = n, 1
	}
}

// onCapacityChange is the hv hotplug notification. In every active mode it
// re-syncs the gauge — offlining a micro pCPU shrinks the pool behind the
// controller's back — and in dynamic mode it abandons the current phase
// and re-profiles immediately: samples taken under the old capacity must
// not drive the next decision.
func (c *Controller) onCapacityChange(int) {
	if !c.started {
		return
	}
	c.numMicro = c.h.MicroCount()
	c.MicroGauge.Set(int64(c.h.Clock.Now()), float64(c.numMicro))
	if c.cfg.Mode != ModeDynamic || c.stepEv == nil {
		return
	}
	c.Counters.Counter("adaptive.reprofile").Inc()
	c.stableRun = 0
	c.profileMode = false
	if c.stepEv.Pending() {
		c.stepEv.Cancel()
	}
	c.stepEv = c.h.Clock.After(0, c.adaptiveStep)
}

// findBestMicroCount picks the profiled configuration (1..searchCeil) with
// the fewest urgent events, preferring the smaller pool on equal totals.
func (c *Controller) findBestMicroCount() int {
	best := 1
	bestTotal := c.urEvents[1].Total()
	for n := 2; n <= c.searchCeil && n < len(c.urEvents); n++ {
		if tot := c.urEvents[n].Total(); tot < bestTotal {
			best, bestTotal = n, tot
		}
	}
	return best
}

// probes snapshots the per-size samples [0..searchCeil] of the finished
// search for the decision record.
func (c *Controller) probes() []trace.Sample {
	out := make([]trace.Sample, c.searchCeil+1)
	copy(out, c.urEvents)
	return out
}

// record appends one decision to the bounded audit ring.
func (c *Controller) record(reason trace.DecisionReason, run trace.Sample, probes []trace.Sample) {
	c.Decisions.Push(trace.Decision{
		Time:    c.h.Clock.Now(),
		Epoch:   c.epoch,
		Reason:  reason,
		Chosen:  c.numMicro,
		Ceiling: c.searchCeil,
		Sample:  run,
		Probes:  probes,
	})
}
