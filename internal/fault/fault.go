// Package fault implements deterministic, seeded fault injection for
// simulation runs. A Config describes which perturbations to apply; a Plan
// pre-draws every random decision's stream from internal/rng so two runs
// with the same Config produce bit-for-bit identical fault schedules —
// fault runs are as reproducible as fault-free ones.
//
// The injectors model the adverse timing the paper's mechanism exists to
// survive: pCPU capacity loss mid-run (hot-unplug/replug — the micro-pool
// controller and credit scheduler must rebalance), delayed or dropped IPIs
// with bounded retry, scheduler-tick jitter, and lock-holder stall
// amplification inside guest critical sections.
//
// Beyond the polite faults above, a plan can schedule harsh classes that
// damage the machine rather than merely perturbing it: permanent pCPU loss
// (no replug), correlated fault storms (windows where IPI drop, tick jitter,
// and lock stalls all intensify at once), and outright IPI loss past the
// retry limit (surfaced to the hypervisor as a typed LostIPI ledger entry
// instead of the usual deliver-anyway backstop). A QuiesceAt instant gates
// every injector: at and after it no new fault fires, which gives the
// recovery supervisor a defined point to converge from.
package fault

import (
	"fmt"
	"sort"
	"strconv"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Storm intensity floors: inside a storm window each polite-fault parameter
// is raised to at least these values (a configured harsher value wins).
const (
	stormIPIDropProb     = 0.5
	stormIPIDelayProb    = 0.5
	stormIPIDelayMax     = 200 * simtime.Microsecond
	stormTickJitter      = simtime.Millisecond
	stormLockStallProb   = 0.3
	stormLockStallFactor = 4.0
)

// Config selects the faults to inject. The zero value injects nothing.
type Config struct {
	// Seed seeds the fault plan's own RNG streams (decorrelated from the
	// workload streams, so enabling a fault never reshuffles workload
	// randomness).
	Seed uint64

	// OfflinePCPUs hot-unplugs this many pCPUs mid-run, each at a
	// deterministic pseudo-random point in [20%, 50%] of the run, and
	// brings each back online 20–40% of the run later. pCPU 0 is never
	// unplugged, so at least one normal-pool core always remains.
	OfflinePCPUs int

	// PermanentOfflinePCPUs hot-unplugs this many additional pCPUs that
	// never come back: permanent capacity loss the scheduler (and the
	// recovery supervisor's micro-pool auto-shrink) must absorb. Drawn from
	// the same no-repeat permutation as OfflinePCPUs; pCPU 0 stays online.
	PermanentOfflinePCPUs int

	// IPIDelayProb delays each virtual IPI with this probability by a
	// uniform duration in (0, IPIDelayMax].
	IPIDelayProb float64
	IPIDelayMax  simtime.Duration

	// IPIDropProb drops each IPI delivery attempt with this probability.
	// Dropped IPIs are retried (hv.Config.IPIRetryDelay apart, up to
	// IPIRetryLimit attempts) and then delivered unconditionally: the
	// fault perturbs timing, it never loses an interrupt outright —
	// unless LoseIPIs opts into real loss.
	IPIDropProb float64

	// LoseIPIs makes an IPI that is still being dropped at the final retry
	// attempt lost outright instead of delivered unconditionally. The
	// hypervisor records each loss in its LostIPI ledger (typed event,
	// trace record, vipi.lost counter) for the recovery supervisor to
	// re-drive. Requires a drop source (IPIDropProb or Storms).
	LoseIPIs bool

	// TickJitter perturbs every scheduler tick by a uniform offset in
	// [-TickJitter, +TickJitter] (clamped so delays stay non-negative).
	TickJitter simtime.Duration

	// LockStallProb amplifies each guest critical section with this
	// probability, scaling its duration by LockStallFactor — a lock
	// holder stalling mid-section, the raw material of LHP.
	LockStallProb   float64
	LockStallFactor float64

	// Storms schedules this many correlated fault bursts: windows of
	// StormLen in which IPI drop/delay, tick jitter, and lock stalls are
	// all raised to at least the storm floors simultaneously. Windows are
	// drawn deterministically in [10%, 70%] of the pre-quiesce run.
	Storms int

	// StormLen is the length of each storm window (0: 5% of the run).
	StormLen simtime.Duration

	// QuiesceAt, when > 0, stops all fault injection at that instant: no
	// IPI is dropped, delayed, or lost, no tick is jittered, no lock
	// stalls, and no unplug initiates at or after it (replugs still fire —
	// they are repairs, not faults). This gives recovery conformance runs
	// a defined chaos→convergence boundary.
	QuiesceAt simtime.Duration
}

// Spec is a fault plan in the units a scenario is written in: ms and µs
// as float64s. The public facade exposes it as microsliced.FaultPlan, and
// the conformance harness's scenarios carry it. Config lowers it. The zero
// value injects nothing; the same Spec on the same scenario always
// reproduces identical results.
type Spec struct {
	// Seed seeds the fault plan's RNG streams.
	Seed uint64 `json:"seed"`
	// OfflinePCPUs hot-unplugs this many pCPUs mid-run and brings them
	// back later; the scheduler and micro-pool controller must rebalance.
	OfflinePCPUs int `json:"offline_pcpus,omitempty"`
	// IPIDelayProb delays a virtual IPI with this probability by up to
	// IPIDelayMaxUs microseconds.
	IPIDelayProb  float64 `json:"ipi_delay_prob,omitempty"`
	IPIDelayMaxUs float64 `json:"ipi_delay_max_us,omitempty"`
	// IPIDropProb drops an IPI delivery attempt with this probability
	// (dropped IPIs are retried with bounded backoff, never lost).
	IPIDropProb float64 `json:"ipi_drop_prob,omitempty"`
	// TickJitterUs perturbs scheduler ticks by up to ±TickJitterUs
	// microseconds.
	TickJitterUs float64 `json:"tick_jitter_us,omitempty"`
	// LockStallProb amplifies a guest critical section with this
	// probability by LockStallFactor.
	LockStallProb   float64 `json:"lock_stall_prob,omitempty"`
	LockStallFactor float64 `json:"lock_stall_factor,omitempty"`
	// PermanentOfflinePCPUs hot-unplugs this many additional pCPUs that
	// never come back — permanent capacity loss the recovery supervisor
	// reacts to by re-homing vCPUs and shrinking the micro pool.
	PermanentOfflinePCPUs int `json:"permanent_offline_pcpus,omitempty"`
	// Storms overlays this many correlated fault bursts: inside each storm
	// window the IPI drop/delay probabilities, tick jitter and lock-stall
	// amplification are raised to harsh floors simultaneously.
	Storms int `json:"storms,omitempty"`
	// StormLenMs is each storm's length (0: a twentieth of the run).
	StormLenMs float64 `json:"storm_len_ms,omitempty"`
	// LoseIPIs converts IPI drops that exhaust the bounded retry budget
	// into lost interrupts, parked in a ledger until the supervisor
	// re-drives them. Requires IPIDropProb > 0 or Storms > 0.
	LoseIPIs bool `json:"lose_ipis,omitempty"`
	// QuiesceAtMs, when positive, stops all fault firing at this point of
	// the run, opening the convergence window MTTR is measured over.
	QuiesceAtMs float64 `json:"quiesce_at_ms,omitempty"`
}

// Config lowers the spec to a Config, converting each ms or µs field to a
// simtime.Duration.
func (s Spec) Config() Config {
	return Config{
		Seed:                  s.Seed,
		OfflinePCPUs:          s.OfflinePCPUs,
		PermanentOfflinePCPUs: s.PermanentOfflinePCPUs,
		IPIDelayProb:          s.IPIDelayProb,
		IPIDelayMax:           simtime.Duration(s.IPIDelayMaxUs * float64(simtime.Microsecond)),
		IPIDropProb:           s.IPIDropProb,
		LoseIPIs:              s.LoseIPIs,
		TickJitter:            simtime.Duration(s.TickJitterUs * float64(simtime.Microsecond)),
		LockStallProb:         s.LockStallProb,
		LockStallFactor:       s.LockStallFactor,
		Storms:                s.Storms,
		StormLen:              simtime.Duration(s.StormLenMs * float64(simtime.Millisecond)),
		QuiesceAt:             simtime.Duration(s.QuiesceAtMs * float64(simtime.Millisecond)),
	}
}

// ConfigError describes one rejected Config field (or a field/run-shape
// combination rejected at New time).
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("fault: invalid %s: %s", e.Field, e.Reason)
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.OfflinePCPUs > 0 || c.PermanentOfflinePCPUs > 0 ||
		c.IPIDelayProb > 0 || c.IPIDropProb > 0 ||
		c.TickJitter > 0 ||
		c.LockStallProb > 0 ||
		c.Storms > 0
}

// Validate rejects out-of-range parameters with a typed *ConfigError.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"IPIDelayProb", c.IPIDelayProb},
		{"IPIDropProb", c.IPIDropProb},
		{"LockStallProb", c.LockStallProb},
	} {
		if p.v < 0 || p.v > 1 {
			return &ConfigError{p.name, fmt.Sprintf("%v outside [0, 1]", p.v)}
		}
	}
	if c.OfflinePCPUs < 0 {
		return &ConfigError{"OfflinePCPUs", fmt.Sprintf("%d negative", c.OfflinePCPUs)}
	}
	if c.PermanentOfflinePCPUs < 0 {
		return &ConfigError{"PermanentOfflinePCPUs", fmt.Sprintf("%d negative", c.PermanentOfflinePCPUs)}
	}
	if c.IPIDelayProb > 0 && c.IPIDelayMax <= 0 {
		return &ConfigError{"IPIDelayMax", fmt.Sprintf("IPIDelayProb %v needs IPIDelayMax > 0", c.IPIDelayProb)}
	}
	if c.IPIDelayMax < 0 {
		return &ConfigError{"IPIDelayMax", fmt.Sprintf("%v negative", c.IPIDelayMax)}
	}
	if c.TickJitter < 0 {
		return &ConfigError{"TickJitter", fmt.Sprintf("%v negative", c.TickJitter)}
	}
	if c.LockStallProb > 0 && c.LockStallFactor < 1 {
		return &ConfigError{"LockStallFactor", fmt.Sprintf("%v must be >= 1", c.LockStallFactor)}
	}
	if c.Storms < 0 {
		return &ConfigError{"Storms", fmt.Sprintf("%d negative", c.Storms)}
	}
	if c.StormLen < 0 {
		return &ConfigError{"StormLen", fmt.Sprintf("%v negative", c.StormLen)}
	}
	if c.LoseIPIs && c.IPIDropProb <= 0 && c.Storms <= 0 {
		return &ConfigError{"LoseIPIs", "needs a drop source (IPIDropProb > 0 or Storms > 0)"}
	}
	if c.QuiesceAt < 0 {
		return &ConfigError{"QuiesceAt", fmt.Sprintf("%v negative", c.QuiesceAt)}
	}
	return nil
}

// HotplugEvent is one scheduled pCPU unplug (and, unless Permanent, replug).
type HotplugEvent struct {
	PCPU int
	Off  simtime.Time
	// On is the replug instant; meaningless when Permanent.
	On simtime.Time
	// Permanent marks capacity loss with no replug.
	Permanent bool
}

// StormWindow is one scheduled correlated-burst interval [Start, End).
type StormWindow struct {
	Start simtime.Time
	End   simtime.Time
}

// Plan is an instantiated fault schedule for one run. Construct with New,
// then Attach to the hypervisor (and AttachGuest to each kernel) before
// the clock runs.
type Plan struct {
	Cfg Config

	// Hotplug is the deterministic unplug/replug schedule, fixed at New.
	Hotplug []HotplugEvent

	// Storms is the deterministic correlated-burst schedule, fixed at New.
	Storms []StormWindow

	ipi  *rng.Source
	tick *rng.Source
	lock *rng.Source

	// clock is captured at Attach so guest-side injectors can consult the
	// quiesce gate and storm windows; nil until then.
	clock *simtime.Clock

	// HotplugErrs collects OfflinePCPU/OnlinePCPU refusals (e.g. the
	// scheduled core became the last normal-pool pCPU); the run continues.
	HotplugErrs []error

	// OnFault, when non-nil, fires when a scheduled fault actually lands
	// (hotplug events; not per-IPI draws, which would fire constantly). It is
	// consulted at event time, so it may be set after Attach. The experiment
	// harness uses it to trigger the flight recorder.
	OnFault func(event string)
}

func (p *Plan) noteFault(event string) {
	if p.OnFault != nil {
		p.OnFault(event)
	}
}

// quiesced reports whether the quiesce gate has closed: at and after
// Cfg.QuiesceAt no new fault fires. Always false before Attach.
func (p *Plan) quiesced() bool {
	return p.Cfg.QuiesceAt > 0 && p.clock != nil &&
		p.clock.Now() >= simtime.Time(p.Cfg.QuiesceAt)
}

// inStorm reports whether now falls inside a scheduled storm window.
func (p *Plan) inStorm(now simtime.Time) bool {
	for _, w := range p.Storms {
		if now >= w.Start && now < w.End {
			return true
		}
	}
	return false
}

// New validates cfg and pre-draws the hotplug and storm schedules for a run
// of the given duration on pcpus cores. The same (cfg, pcpus, duration)
// triple always yields the same plan. Schedule-shape problems that only
// appear once the run length is known — a replug that cannot land inside
// the run, a quiesce point at or past run end — are rejected here with a
// typed *ConfigError.
func New(cfg Config, pcpus int, duration simtime.Duration) (*Plan, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	totalOff := cfg.OfflinePCPUs + cfg.PermanentOfflinePCPUs
	if totalOff > pcpus-1 {
		return nil, &ConfigError{"OfflinePCPUs", fmt.Sprintf(
			"%d temporary + %d permanent unplugs leave no core online (have %d)",
			cfg.OfflinePCPUs, cfg.PermanentOfflinePCPUs, pcpus)}
	}
	if duration <= 0 && cfg.Enabled() {
		return nil, &ConfigError{"Duration", fmt.Sprintf(
			"run duration %v leaves no room for scheduled faults", duration)}
	}
	if cfg.QuiesceAt >= duration && cfg.QuiesceAt > 0 {
		return nil, &ConfigError{"QuiesceAt", fmt.Sprintf(
			"%v at or past run end %v", cfg.QuiesceAt, duration)}
	}
	root := rng.New(cfg.Seed ^ 0xfa17_5eed_0000_0001)
	p := &Plan{
		Cfg:  cfg,
		ipi:  root.Fork(1),
		tick: root.Fork(2),
		lock: root.Fork(3),
	}
	hot := root.Fork(4)
	// Faults initiate inside [0, window): with a quiesce point, no unplug
	// or storm may begin at or after it.
	window := duration
	if cfg.QuiesceAt > 0 {
		window = cfg.QuiesceAt
	}
	if totalOff > 0 {
		// Unplug distinct cores, never pCPU 0 (ID order for readability).
		perm := hot.Perm(pcpus - 1)
		for i := 0; i < cfg.OfflinePCPUs; i++ {
			off := simtime.Time(hot.Uniform(0.2, 0.5) * float64(window))
			on := off + simtime.Time(hot.Uniform(0.2, 0.4)*float64(duration))
			if on >= simtime.Time(duration) {
				on = simtime.Time(duration) * 9 / 10
			}
			if on <= off {
				return nil, &ConfigError{"OfflinePCPUs", fmt.Sprintf(
					"replug for pCPU %d cannot land inside the run (unplug at %v, run ends at %v)",
					perm[i]+1, off, duration)}
			}
			p.Hotplug = append(p.Hotplug, HotplugEvent{PCPU: perm[i] + 1, Off: off, On: on})
		}
		for i := 0; i < cfg.PermanentOfflinePCPUs; i++ {
			off := simtime.Time(hot.Uniform(0.2, 0.5) * float64(window))
			p.Hotplug = append(p.Hotplug, HotplugEvent{
				PCPU: perm[cfg.OfflinePCPUs+i] + 1, Off: off, Permanent: true,
			})
		}
	}
	if cfg.Storms > 0 {
		storm := root.Fork(5)
		length := cfg.StormLen
		if length == 0 {
			length = duration / 20
		}
		for i := 0; i < cfg.Storms; i++ {
			start := simtime.Time(storm.Uniform(0.1, 0.7) * float64(window))
			end := start + simtime.Time(length)
			if end > simtime.Time(window) {
				end = simtime.Time(window)
			}
			p.Storms = append(p.Storms, StormWindow{Start: start, End: end})
		}
		sort.Slice(p.Storms, func(i, j int) bool { return p.Storms[i].Start < p.Storms[j].Start })
	}
	return p, nil
}

// Attach installs the plan's hypervisor-side injectors: the IPI fault and
// tick-jitter hooks, and the hotplug schedule as a clock event. Call once,
// before hv.Start / clock.Run.
func (p *Plan) Attach(h *hv.Hypervisor) {
	cfg := p.Cfg
	p.clock = h.Clock
	if cfg.IPIDelayProb > 0 || cfg.IPIDropProb > 0 || cfg.Storms > 0 {
		h.Hooks.IPIFault = func(vec hv.Vector) (simtime.Duration, bool) {
			if p.quiesced() {
				return 0, false
			}
			dropProb, delayProb, delayMax := cfg.IPIDropProb, cfg.IPIDelayProb, cfg.IPIDelayMax
			if p.inStorm(h.Clock.Now()) {
				dropProb = max(dropProb, stormIPIDropProb)
				delayProb = max(delayProb, stormIPIDelayProb)
				delayMax = max(delayMax, stormIPIDelayMax)
			}
			// Draw both decisions unconditionally so the stream consumed
			// per IPI is fixed regardless of outcomes (and regardless of
			// storm-raised probabilities: Bool always costs one draw).
			drop := p.ipi.Bool(dropProb)
			delayed := p.ipi.Bool(delayProb)
			var delay simtime.Duration
			if delayed && delayMax > 0 {
				delay = simtime.Duration(p.ipi.Int63n(int64(delayMax))) + 1
			}
			return delay, drop
		}
	}
	if cfg.LoseIPIs {
		// Consulted only when the final retry attempt is still dropped —
		// which IPIFault already gates on the quiesce point, so any IPI
		// reaching this hook was dropped pre-quiesce.
		h.Hooks.IPILoss = func(vec hv.Vector) bool { return true }
	}
	if cfg.TickJitter > 0 || cfg.Storms > 0 {
		h.Hooks.TickJitter = func(d simtime.Duration) simtime.Duration {
			if p.quiesced() {
				return d
			}
			j := int64(cfg.TickJitter)
			if p.inStorm(h.Clock.Now()) {
				j = max(j, int64(stormTickJitter))
			}
			if j == 0 {
				return d
			}
			return d + simtime.Duration(p.tick.UniformDur(-j, j))
		}
	}
	if len(p.Hotplug) > 0 {
		// One owned event walks the whole time-sorted action list instead
		// of pre-registering two closures per hotplug event: each fire
		// applies its action and re-arms the same event for the next one.
		// Tick jitter reaches only the scheduler's tick and accounting
		// timers (hv.Hooks.TickJitter), so arming at at-now lands exactly
		// at at. The stable sort keeps the original creation order (off
		// before on, schedule order) for same-instant actions.
		actions := make([]hotplugAction, 0, 2*len(p.Hotplug))
		for _, ev := range p.Hotplug {
			actions = append(actions, hotplugAction{at: ev.Off, pcpu: ev.PCPU, online: false})
			if !ev.Permanent {
				actions = append(actions, hotplugAction{at: ev.On, pcpu: ev.PCPU, online: true})
			}
		}
		sort.SliceStable(actions, func(i, j int) bool { return actions[i].at < actions[j].at })
		next := 0
		ev := new(simtime.Event)
		h.Clock.Bind(ev, kindHotplug, func() {
			a := actions[next]
			next++
			p.applyHotplug(h, a)
			if next < len(actions) {
				ev.Arm(actions[next].at - h.Clock.Now())
			}
		})
		ev.Arm(actions[0].at - h.Clock.Now())
	}
}

// kindHotplug is the event kind of the plan's hotplug walk.
var kindHotplug = simtime.NewKind("hotplug")

// hotplugAction is one entry of the flattened, time-sorted hotplug walk.
type hotplugAction struct {
	at     simtime.Time
	pcpu   int
	online bool
}

func (p *Plan) applyHotplug(h *hv.Hypervisor, a hotplugAction) {
	var err error
	verb := "hotplug-off"
	if a.online {
		verb = "hotplug-on"
		err = h.OnlinePCPU(a.pcpu)
	} else {
		err = h.OfflinePCPU(a.pcpu)
	}
	if err != nil {
		p.HotplugErrs = append(p.HotplugErrs, err)
		return
	}
	p.noteFault(verb + " p" + strconv.Itoa(a.pcpu))
}

// AttachGuest installs the guest-side lock-stall injector on one kernel.
// Call after Attach so the quiesce gate and storm windows see the clock.
func (p *Plan) AttachGuest(k *guest.Kernel) {
	cfg := p.Cfg
	if cfg.LockStallProb <= 0 && cfg.Storms == 0 {
		return
	}
	k.LockStall = func(class string, d simtime.Duration) simtime.Duration {
		if p.quiesced() {
			return d
		}
		prob, factor := cfg.LockStallProb, cfg.LockStallFactor
		if p.clock != nil && p.inStorm(p.clock.Now()) {
			prob = max(prob, stormLockStallProb)
			factor = max(factor, stormLockStallFactor)
		}
		if !p.lock.Bool(prob) {
			return d
		}
		return simtime.Duration(float64(d) * factor)
	}
}
