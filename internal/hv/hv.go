// Package hv implements the hypervisor model: physical CPUs, domains,
// virtual CPUs, the Xen credit1 scheduler (30 ms slice, 10 ms tick,
// BOOST/UNDER/OVER priorities, work-conserving stealing), cpupools with
// per-pool time slices, pause-loop-exit and voluntary yield handling, and
// virtual IPI/IRQ relay with pending-interrupt queues.
//
// The virtual-time-discontinuity problem the paper studies arises here
// naturally: a vCPU that is Runnable-but-not-Running cannot process its
// pending interrupts or finish its critical section until the scheduler
// dispatches it again.
//
// The micro-sliced-core mechanism (internal/core) attaches through Hooks
// and the pool-migration API; hv itself is a faithful "vanilla Xen"
// baseline when no hooks are installed.
package hv

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/hv/fifo"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// Config holds the machine and scheduler parameters.
type Config struct {
	PCPUs int // number of physical CPUs

	NormalSlice  simtime.Duration // scheduling quantum of the normal pool (Xen default 30ms)
	MicroSlice   simtime.Duration // quantum of the micro-sliced pool (paper: 0.1ms)
	Tick         simtime.Duration // credit debit tick (Xen: 10ms)
	TicksPerAcct int              // accounting every N ticks (Xen: 3)

	CreditDebitPerTick int // credits debited from a running vCPU per tick (Xen: 100)
	CreditCap          int // upper clamp on a vCPU's credits (Xen: credits per timeslice, 300)
	CreditFloor        int // lower clamp

	CtxSwitchCost simtime.Duration // direct context-switch overhead
	ColdCacheCost simtime.Duration // cache-refill penalty when a pCPU switches vCPUs
	IPILatency    simtime.Duration // hypervisor vIPI/vIRQ injection latency
	PIRQCost      simtime.Duration // hypervisor physical-IRQ handling cost

	// IPIRetryDelay / IPIRetryLimit bound the resend loop used when an
	// injected fault drops a vIPI (Hooks.IPIFault): each dropped send is
	// retried after IPIRetryDelay, at most IPIRetryLimit times, after which
	// the IPI is delivered unconditionally — hardware eventually gets the
	// interrupt through, so a fault plan can delay but never lose one.
	IPIRetryDelay simtime.Duration
	IPIRetryLimit int

	BoostEnabled    bool // Xen's BOOST-on-wake optimization
	MicroRunqLimit  int  // max queued vCPUs per micro pCPU (paper: 1)
	MicroReturnHome bool // vCPUs go home after one micro slice (paper: true)

	TraceCapacity int // ring size of the trace buffer (0: counters only)
}

// DefaultConfig returns the paper's experimental configuration: a 12-thread
// host running the Xen 4.7 credit scheduler.
func DefaultConfig() Config {
	return Config{
		PCPUs:              12,
		NormalSlice:        30 * simtime.Millisecond,
		MicroSlice:         100 * simtime.Microsecond,
		Tick:               10 * simtime.Millisecond,
		TicksPerAcct:       3,
		CreditDebitPerTick: 100,
		CreditCap:          300,
		CreditFloor:        -1000,
		CtxSwitchCost:      1500 * simtime.Nanosecond,
		ColdCacheCost:      15 * simtime.Microsecond,
		IPILatency:         500 * simtime.Nanosecond,
		PIRQCost:           800 * simtime.Nanosecond,
		IPIRetryDelay:      5 * simtime.Microsecond,
		IPIRetryLimit:      4,
		BoostEnabled:       true,
		MicroRunqLimit:     1,
		MicroReturnHome:    true,
		TraceCapacity:      0,
	}
}

// MaxPCPUs is the largest supported machine size. The scheduler's pool
// occupancy index packs per-pCPU state into uint64 bitmasks (one bit per
// pool slot), so a pool can never hold more than 64 pCPUs.
const MaxPCPUs = 64

// ConfigError reports a Config field whose value cannot produce a sound
// simulation (division by zero in credit burning, empty machines, negative
// costs). New panics with its message; callers that build configs from
// external input should call Config.Validate first.
type ConfigError struct {
	Field  string
	Reason string
}

// Error formats the offending field and why it was rejected.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("hv: invalid Config.%s: %s", e.Field, e.Reason)
}

// Validate checks the configuration for degenerate values. In particular it
// rejects Tick < CreditDebitPerTick nanoseconds, where the per-credit
// runtime quantum (Tick/CreditDebitPerTick) truncates to zero and credit
// burning would divide by zero.
func (c Config) Validate() error {
	switch {
	case c.PCPUs <= 0:
		return &ConfigError{"PCPUs", fmt.Sprintf("need at least one pCPU, got %d", c.PCPUs)}
	case c.PCPUs > MaxPCPUs:
		return &ConfigError{"PCPUs", fmt.Sprintf("at most %d pCPUs supported (pool occupancy masks are 64-bit), got %d", MaxPCPUs, c.PCPUs)}
	case c.NormalSlice <= 0:
		return &ConfigError{"NormalSlice", fmt.Sprintf("slice must be positive, got %v", c.NormalSlice)}
	case c.MicroSlice <= 0:
		return &ConfigError{"MicroSlice", fmt.Sprintf("slice must be positive, got %v", c.MicroSlice)}
	case c.Tick <= 0:
		return &ConfigError{"Tick", fmt.Sprintf("tick must be positive, got %v", c.Tick)}
	case c.TicksPerAcct < 1:
		return &ConfigError{"TicksPerAcct", fmt.Sprintf("need at least one tick per accounting period, got %d", c.TicksPerAcct)}
	case c.CreditDebitPerTick < 1:
		return &ConfigError{"CreditDebitPerTick", fmt.Sprintf("need at least one credit per tick, got %d", c.CreditDebitPerTick)}
	case c.Tick < simtime.Duration(c.CreditDebitPerTick):
		return &ConfigError{"CreditDebitPerTick", fmt.Sprintf(
			"%d credits per %v tick leaves no whole nanosecond per credit (burn quantum truncates to zero)",
			c.CreditDebitPerTick, c.Tick)}
	case c.CreditCap < 1:
		return &ConfigError{"CreditCap", fmt.Sprintf("cap must be positive, got %d", c.CreditCap)}
	case c.CreditFloor > c.CreditCap:
		return &ConfigError{"CreditFloor", fmt.Sprintf("floor %d above cap %d", c.CreditFloor, c.CreditCap)}
	case c.CtxSwitchCost < 0:
		return &ConfigError{"CtxSwitchCost", fmt.Sprintf("cost must be non-negative, got %v", c.CtxSwitchCost)}
	case c.ColdCacheCost < 0:
		return &ConfigError{"ColdCacheCost", fmt.Sprintf("cost must be non-negative, got %v", c.ColdCacheCost)}
	case c.IPILatency < 0:
		return &ConfigError{"IPILatency", fmt.Sprintf("latency must be non-negative, got %v", c.IPILatency)}
	case c.PIRQCost < 0:
		return &ConfigError{"PIRQCost", fmt.Sprintf("cost must be non-negative, got %v", c.PIRQCost)}
	case c.IPIRetryDelay < 0:
		return &ConfigError{"IPIRetryDelay", fmt.Sprintf("delay must be non-negative, got %v", c.IPIRetryDelay)}
	case c.IPIRetryLimit < 0:
		return &ConfigError{"IPIRetryLimit", fmt.Sprintf("limit must be non-negative, got %d", c.IPIRetryLimit)}
	case c.MicroRunqLimit < 0:
		return &ConfigError{"MicroRunqLimit", fmt.Sprintf("limit must be non-negative, got %d", c.MicroRunqLimit)}
	case c.TraceCapacity < 0:
		return &ConfigError{"TraceCapacity", fmt.Sprintf("capacity must be non-negative, got %d", c.TraceCapacity)}
	}
	return nil
}

// Priority is a credit1 scheduling priority; lower values run first.
type Priority int8

// Credit1 priorities.
const (
	PrioBoost Priority = iota // woken from blocked, runs next
	PrioUnder                 // positive credits
	PrioOver                  // exhausted credits
	PrioIdle                  // placeholder for "no candidate"
)

// String names the priority.
func (p Priority) String() string {
	switch p {
	case PrioBoost:
		return "BOOST"
	case PrioUnder:
		return "UNDER"
	case PrioOver:
		return "OVER"
	default:
		return "IDLE"
	}
}

// VCPUState is the scheduling state of a virtual CPU.
type VCPUState uint8

// vCPU states.
const (
	StateBlocked  VCPUState = iota // halted, waiting for an event
	StateRunnable                  // on a runqueue, waiting for a pCPU
	StateRunning                   // executing on a pCPU
)

// String names the state.
func (s VCPUState) String() string {
	switch s {
	case StateBlocked:
		return "blocked"
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// YieldReason explains why a running vCPU gave up its pCPU.
type YieldReason uint8

// Yield reasons, matching the decomposition of the paper's Figure 7.
const (
	YieldPLE     YieldReason = iota // pause-loop exit while spinning on a lock
	YieldIPIWait                    // voluntary yield while waiting for IPI acks
	YieldHalt                       // guest idled (SCHEDOP_block)
	YieldOther                      // any other voluntary yield
)

// String names the reason.
func (r YieldReason) String() string {
	switch r {
	case YieldPLE:
		return "ple"
	case YieldIPIWait:
		return "ipi"
	case YieldHalt:
		return "halt"
	default:
		return "other"
	}
}

// Vector identifies a virtual interrupt.
type Vector uint8

// Interrupt vectors used by the guest model.
const (
	VecResched  Vector = iota // scheduler wakeup IPI
	VecCallFunc               // smp_call_function (TLB shootdown) IPI
	VecNet                    // network device IRQ
	VecTimer                  // guest timer
	VecDisk                   // block-device completion IRQ
)

// String names the vector.
func (v Vector) String() string {
	switch v {
	case VecResched:
		return "resched"
	case VecCallFunc:
		return "callfunc"
	case VecNet:
		return "net"
	case VecTimer:
		return "timer"
	case VecDisk:
		return "disk"
	default:
		return fmt.Sprintf("vec(%d)", uint8(v))
	}
}

// GuestContext is the hypervisor's view of what runs inside a vCPU. The
// guest package implements it. The hypervisor may additionally read the
// vCPU's instruction pointer through RIP — and nothing else, preserving the
// paper's guest-transparency property.
type GuestContext interface {
	// OnScheduled is invoked when the vCPU starts executing on a pCPU
	// (after any context-switch cost has elapsed).
	OnScheduled(now simtime.Time)
	// OnDescheduled is invoked when the vCPU stops executing. The guest
	// must checkpoint all in-progress work.
	OnDescheduled(now simtime.Time)
	// OnInterrupt delivers a virtual interrupt while the vCPU is running.
	OnInterrupt(now simtime.Time, vec Vector, data uint64)
	// RIP returns the guest instruction pointer (valid at any time).
	RIP() uint64
}

// PendingIRQ is an interrupt waiting for its target vCPU to be dispatched.
type PendingIRQ struct {
	Vec  Vector
	Data uint64
	Span obs.SpanRef // open ipi_deliver span riding the interrupt (0: none)
}

// VCPU is a virtual CPU.
type VCPU struct {
	ID    int // global vCPU index
	DomID int // owning domain
	Idx   int // index within the domain
	Dom   *Domain
	Guest GuestContext

	state    VCPUState
	prio     Priority
	boosted  bool
	credits  int
	pool     *Pool
	homePool *Pool
	pcpu     *PCPU // non-nil while Running
	queuedOn *PCPU // non-nil while Runnable on a runqueue
	lastPCPU int   // affinity hint
	pin      int   // pinned pCPU id, -1 if unpinned

	pending fifo.FIFO[PendingIRQ]

	runningSince  simtime.Time
	runnableSince simtime.Time // when the vCPU last left a pCPU/blocked state
	ranTotal      simtime.Duration
	microVisits   uint64

	burnAt simtime.Time // start of the current credit-burn window
	debtNs int64        // sub-credit runtime carried to the next burn

	sliceOverride simtime.Duration // per-vCPU quantum (0: pool default)
	yieldsBy      [4]uint64        // per-vCPU yield counts by reason
	virqRecv      uint64           // device IRQs routed to this vCPU
}

// State returns the scheduling state.
func (v *VCPU) State() VCPUState { return v.state }

// Priority returns the credit1 priority the vCPU is queued or runs at.
func (v *VCPU) Priority() Priority { return v.prio }

// Credits returns the current credit balance.
func (v *VCPU) Credits() int { return v.credits }

// OnMicro reports whether the vCPU currently belongs to the micro pool.
func (v *VCPU) OnMicro() bool { return v.pool != v.homePool }

// Pin restricts the vCPU to one pCPU of its home pool (-1 unpins). Pin is a
// setup-time call (before Start); changing the pinning of a live vCPU must
// go through Hypervisor.RePin, which also re-places a queued vCPU and
// notifies idle pCPUs whose suppressed tick the change may concern.
func (v *VCPU) Pin(pcpu int) { v.pin = pcpu }

// PinnedTo returns the pCPU the vCPU is pinned to (-1 if unpinned).
func (v *VCPU) PinnedTo() int { return v.pin }

// Pool returns the cpupool the vCPU currently belongs to.
func (v *VCPU) Pool() *Pool { return v.pool }

// RunnableSince returns the instant the vCPU last became Runnable (left a
// pCPU or woke from blocked). Meaningful only while the vCPU is Runnable;
// the auditor and the recovery supervisor key starvation episodes on it.
func (v *VCPU) RunnableSince() simtime.Time { return v.runnableSince }

// RanTotal returns the accumulated execution time (updated on deschedule).
func (v *VCPU) RanTotal() simtime.Duration { return v.ranTotal }

// MicroVisits returns how many times this vCPU was migrated to the micro pool.
func (v *VCPU) MicroVisits() uint64 { return v.microVisits }

// PendingCount returns the number of undelivered interrupts.
func (v *VCPU) PendingCount() int { return v.pending.Len() }

// SetSliceOverride gives the vCPU its own scheduling quantum regardless of
// its pool (0 restores the pool default). Prior-work schedulers that pick
// per-vCPU time slices (vTRS, vSlicer) are modelled with this.
func (v *VCPU) SetSliceOverride(d simtime.Duration) { v.sliceOverride = d }

// SliceOverride returns the per-vCPU quantum (0 when the pool's applies).
func (v *VCPU) SliceOverride() simtime.Duration { return v.sliceOverride }

// YieldsBy returns this vCPU's yield count for one reason.
func (v *VCPU) YieldsBy(r YieldReason) uint64 {
	if int(r) < len(v.yieldsBy) {
		return v.yieldsBy[r]
	}
	return 0
}

// VIRQReceived returns how many device IRQs were routed to this vCPU.
func (v *VCPU) VIRQReceived() uint64 { return v.virqRecv }

func (v *VCPU) String() string {
	return fmt.Sprintf("d%dv%d(%s,%s)", v.DomID, v.Idx, v.state, v.prio)
}

// DefaultWeight is credit1's default domain weight.
const DefaultWeight = 256

// Domain is a virtual machine.
type Domain struct {
	ID       int
	Name     string
	VCPUs    []*VCPU
	IRQVCPU  int // designated vCPU for device IRQs
	Weight   int // credit1 proportional-share weight (DefaultWeight if unset)
	Counters *metrics.Set

	// SymbolMap is the System.map blob the guest "provides" to the
	// hypervisor (paper §4.4). The detector parses it; the hypervisor
	// proper never looks inside. Domains booted from one kernel build
	// share the bytes, so nothing may modify them.
	SymbolMap []byte

	hot domHot // interned per-domain counters for the per-event paths
}

// domHot holds the per-domain counters incremented on every yield, IPI and
// IRQ, resolved once in NewDomain so the hot paths never hash a name.
type domHot struct {
	yieldBy     [4]*metrics.Counter // indexed by YieldReason
	yieldTotal  *metrics.Counter
	vipiSent    *metrics.Counter
	virqSent    *metrics.Counter
	irqDeferred *metrics.Counter
	migrMicro   *metrics.Counter
}

// PCPU is a physical CPU.
type PCPU struct {
	ID   int
	pool *Pool

	cur     *VCPU
	lastRan *VCPU
	runq    []*VCPU // priority-sorted, stable within a class

	busy simtime.Duration

	// offline marks a hot-unplugged pCPU (fault injection): it belongs to
	// no pool, holds no work, and its tick idles until OnlinePCPU.
	offline bool

	// Occupancy-index state (see DESIGN.md "Scheduler occupancy index").
	// slot is this pCPU's position in pool.pcpus and its bit index in the
	// pool's heads/busyMask/parkedMask bitmasks; -1 while in no pool.
	slot int

	// The pCPU's owned timers, bound once in New and re-armed in place:
	// slice is the current vCPU's quantum (stopped lazily, see
	// simtime.Timer), ctxsw the context-switch warmup (pending while the
	// current vCPU has not started yet), and tick the scheduler tick (not
	// pending while parked or inside its callback). slice and ctxsw act on
	// p.cur, which is stable while either is armed because
	// descheduleCurrent stops both before clearing cur. tickPhase is the
	// pCPU's stagger phase in [0, Tick), so a parked tick re-arms on its
	// original grid, and parked marks an idle pCPU whose tick is suppressed.
	slice     simtime.Timer
	ctxsw     simtime.Event
	tick      simtime.Event
	tickPhase simtime.Duration
	parked    bool
}

// Offline reports whether the pCPU is hot-unplugged.
func (p *PCPU) Offline() bool { return p.offline }

// Runqueue returns the vCPUs queued on the pCPU in dispatch order. The
// slice is the scheduler's own: read it, never modify or keep it.
func (p *PCPU) Runqueue() []*VCPU { return p.runq }

// Busy returns accumulated non-idle time.
func (p *PCPU) Busy() simtime.Duration { return p.busy }

// Pool returns the cpupool this pCPU currently belongs to.
func (p *PCPU) Pool() *Pool { return p.pool }

// Pool is a cpupool: a set of pCPUs sharing a time slice and scheduling
// policy flags (Xen's cpupool mechanism, extended per the paper §5).
type Pool struct {
	Name       string
	Slice      simtime.Duration
	RunqLimit  int  // 0: unlimited
	ReturnHome bool // vCPUs migrate back to their home pool after one slice
	NoBoost    bool // wakeups in this pool never boost
	NoSteal    bool // pCPUs in this pool never steal work
	NoPreempt  bool // running vCPUs finish their slice (no tickle preemption)

	pcpus []*PCPU

	// Occupancy index: one bit per pool slot (pcpus index). heads[k] marks
	// members whose runqueue head has priority k, so a member with queued
	// work is in exactly one head mask; busyMask marks members with a
	// current vCPU, parkedMask members whose idle tick is suppressed.
	// Maintained by the runqueue operations, dispatch and deschedule and
	// rebuilt by reindex on any membership change; VerifySchedIndex
	// cross-validates them.
	heads      [PrioIdle]uint64
	busyMask   uint64
	parkedMask uint64
}

// occupied returns the members with queued work.
func (pl *Pool) occupied() uint64 {
	return pl.heads[PrioBoost] | pl.heads[PrioUnder] | pl.heads[PrioOver]
}

// headsBelow returns the members whose runqueue head has a priority
// strictly better than k.
func (pl *Pool) headsBelow(k Priority) uint64 {
	switch k {
	case PrioBoost:
		return 0
	case PrioUnder:
		return pl.heads[PrioBoost]
	case PrioOver:
		return pl.heads[PrioBoost] | pl.heads[PrioUnder]
	}
	return pl.occupied()
}

// memberMask returns the bitmask covering every current pool slot.
func (pl *Pool) memberMask() uint64 {
	// A 64-member pool shifts by 64, which in Go yields 0, making the
	// mask ^uint64(0) — still correct.
	return uint64(1)<<uint(len(pl.pcpus)) - 1
}

// reindex rebuilds the pool's slots and occupancy masks from the ground
// truth after a membership change (grow/shrink/hotplug).
func (pl *Pool) reindex() {
	pl.heads, pl.busyMask, pl.parkedMask = [PrioIdle]uint64{}, 0, 0
	for i, p := range pl.pcpus {
		p.slot = i
		bit := uint64(1) << uint(i)
		if len(p.runq) > 0 {
			pl.heads[p.runq[0].prio] |= bit
		}
		if p.cur != nil {
			pl.busyMask |= bit
		}
		if p.parked {
			pl.parkedMask |= bit
		}
	}
}

// PCPUs returns the pool's current pCPUs.
func (pl *Pool) PCPUs() []*PCPU { return pl.pcpus }

// Size returns the number of pCPUs in the pool.
func (pl *Pool) Size() int { return len(pl.pcpus) }

// OnlineCount returns the number of online pCPUs currently in the pool.
// (Pools drop hot-unplugged pCPUs, so today this equals Size; the auditor
// cross-checks exactly that.)
func (pl *Pool) OnlineCount() int {
	n := 0
	for _, p := range pl.pcpus {
		if !p.offline {
			n++
		}
	}
	return n
}

// Hooks are the attachment points for the micro-sliced-core mechanism.
// All hooks may be nil (vanilla Xen behaviour).
type Hooks struct {
	// OnYield fires after a vCPU yields, before the pCPU reschedules. The
	// hook may migrate vCPUs to the micro pool, and MigrateToMicro is the
	// only scheduling change it may make. While the yielder stays in its
	// home pool on its own pCPU, its requeue waits until the hook's first
	// migration gets past the capacity check, so a hook that moves nothing
	// leaves the yield free to re-dispatch in place. Otherwise the yielder
	// is re-queued before the hook runs.
	OnYield func(v *VCPU, reason YieldReason)
	// OnVIRQRelay fires when the hypervisor relays a device IRQ to a vCPU.
	OnVIRQRelay func(target *VCPU)
	// OnVIPIRelay fires when the hypervisor relays a guest IPI.
	OnVIPIRelay func(src, target *VCPU, vec Vector)
	// IPIFault, when non-nil, is consulted on every vIPI send (fault
	// injection): it returns an extra delivery delay and whether this send
	// attempt is dropped. Dropped sends are retried after
	// Config.IPIRetryDelay, at most Config.IPIRetryLimit times, then
	// delivered unconditionally.
	IPIFault func(vec Vector) (delay simtime.Duration, drop bool)
	// IPILoss, when non-nil, is consulted when an IPI is still dropped at
	// the final retry attempt: returning true loses the interrupt outright
	// (it enters the LostIPI ledger for the recovery supervisor to
	// re-drive) instead of the deliver-anyway backstop.
	IPILoss func(vec Vector) bool
	// OnCapacityChange fires after a pCPU hot-unplug or replug changes the
	// machine-wide online count, with the new count. The adaptive
	// controller re-syncs its pool-size gauge and re-profiles on it:
	// capacity loss can shrink the micro pool under the controller's feet.
	OnCapacityChange func(online int)
}

// Hypervisor ties the machine together.
type Hypervisor struct {
	Clock    *simtime.Clock
	Cfg      Config
	Counters *metrics.Set
	Trace    *trace.Buffer
	Hooks    Hooks

	// Obs, when non-nil, receives scheduling-state transitions and latency
	// spans. Every hot-path hook site is guarded by a nil check, so a run
	// without an observer pays one predictable branch per event. The
	// observer is strictly passive: attaching one never changes the
	// scheduling decisions or the event sequence.
	Obs *obs.Observer

	// CheckPick, when non-nil, sees every scheduling choice just before it
	// takes effect, with the runqueues still as the choice found them. p
	// is the pCPU choosing and got the vCPU it runs next (nil: p idles).
	// requeued is non-nil only at a Yield: the yielder, which the choice
	// treats as queued at the tail of its class on p although it is on no
	// runqueue. got is then the yielder when Yield re-dispatches it in
	// place, or nil when the yield takes the regular requeue path (whose
	// pick is reported on its own). The conformance harness runs a
	// reference picker in lockstep through it; it is nil in every other
	// run and must not change scheduler state.
	CheckPick func(p *PCPU, requeued, got *VCPU)

	normal  *Pool
	micro   *Pool
	pcpus   []*PCPU
	domains []*Domain
	vcpus   []*VCPU

	hot hvHot // interned hypervisor-wide counters for the per-event paths

	// lostIPIs is the ledger of interrupts lost past the retry limit
	// (Hooks.IPILoss); lostSeq numbers entries monotonically per run.
	lostIPIs []LostIPI
	lostSeq  uint64

	// freeIRQ holds, per kind, the free list of records of interrupts in
	// flight (see pendingIRQ).
	freeIRQ [numIRQKinds]*pendingIRQ

	acct        simtime.Event // the global credit-accounting tick
	nsPerCredit int64         // runtime worth one credit: Tick / CreditDebitPerTick

	stoleNext bool // pickNext→dispatch handoff: the pick came from a steal

	// yieldV and yieldP are a hooked Yield's deferred requeue: the yielder
	// and the pCPU it is queued on once the OnYield hook moves work
	// (settleYield). yieldV is nil while no yield is pending.
	yieldV *VCPU
	yieldP *PCPU

	// microSince/microArea integrate the micro pool's size over time
	// (core·ns), maintained at every pool-membership change. The ledger is
	// independent of the controller's MicroGauge so the conformance harness
	// can reconcile the two (the gauge-integral law).
	microSince simtime.Time
	microArea  int64

	started bool
}

// hvHot holds the hypervisor-wide counters incremented per scheduling event,
// resolved once in New. Cold paths (pool resizing, error cases) keep using
// the string-keyed Counters registry via count().
type hvHot struct {
	yieldBy     [4]*metrics.Counter // indexed by YieldReason
	yieldTotal  *metrics.Counter
	dispatch    *metrics.Counter
	steal       *metrics.Counter
	preempt     *metrics.Counter
	boost       *metrics.Counter
	vipiSent    *metrics.Counter
	virqSent    *metrics.Counter
	pirq        *metrics.Counter
	irqDeferred *metrics.Counter
	migrMicro   *metrics.Counter
	migrHome    *metrics.Counter
	vipiDropped *metrics.Counter
	vipiRetried *metrics.Counter
	vipiLost    *metrics.Counter
	// microFull is resolved on its first fire, not in New: an eager handle
	// would add a zero-valued key to every counter snapshot.
	microFull *metrics.Counter
}

// yieldName maps a YieldReason to its counter name (matches YieldReason.String).
var yieldName = [4]string{"yield.ple", "yield.ipi", "yield.halt", "yield.other"}

// New constructs a hypervisor. All pCPUs start in the normal pool; the
// micro pool starts empty and is grown via GrowMicro (adaptive mode) or
// SetMicroCount (static mode).
func New(clock *simtime.Clock, cfg Config) *Hypervisor {
	if err := cfg.Validate(); err != nil {
		panic(err.Error())
	}
	h := &Hypervisor{
		Clock:    clock,
		Cfg:      cfg,
		Counters: metrics.NewSet(),
		Trace:    trace.NewBuffer(cfg.TraceCapacity),

		nsPerCredit: int64(cfg.Tick) / int64(cfg.CreditDebitPerTick),
	}
	clock.Bind(&h.acct, "acct", h.acctTick)
	h.normal = &Pool{Name: "normal", Slice: cfg.NormalSlice}
	h.micro = &Pool{
		Name:       "micro",
		Slice:      cfg.MicroSlice,
		RunqLimit:  cfg.MicroRunqLimit,
		ReturnHome: cfg.MicroReturnHome,
		NoBoost:    true,
		NoSteal:    true,
		NoPreempt:  true, // urgent tasks complete without interruption (§5)
	}
	for i := 0; i < cfg.PCPUs; i++ {
		p := &PCPU{ID: i, pool: h.normal, slot: i}
		// Owned per-pCPU timers: dispatch and slice expiry are the hottest
		// periodic paths, and binding here (once per machine, not once per
		// dispatch) keeps them allocation-free and off the free list.
		clock.BindTimer(&p.slice, "slice", func() { h.sliceExpired(p) })
		clock.Bind(&p.ctxsw, "ctxswitch", func() { h.startCurrent(p) })
		clock.Bind(&p.tick, "tick", func() { h.pcpuTick(p) })
		h.pcpus = append(h.pcpus, p)
		h.normal.pcpus = append(h.normal.pcpus, p)
	}
	for r := range yieldName {
		h.hot.yieldBy[r] = h.Counters.Handle(yieldName[r])
	}
	h.hot.yieldTotal = h.Counters.Handle("yield.total")
	h.hot.dispatch = h.Counters.Handle("sched.dispatch")
	h.hot.steal = h.Counters.Handle("sched.steal")
	h.hot.preempt = h.Counters.Handle("sched.preempt")
	h.hot.boost = h.Counters.Handle("boost")
	h.hot.vipiSent = h.Counters.Handle("vipi.sent")
	h.hot.virqSent = h.Counters.Handle("virq.sent")
	h.hot.pirq = h.Counters.Handle("pirq")
	h.hot.irqDeferred = h.Counters.Handle("irq.deferred")
	h.hot.migrMicro = h.Counters.Handle("migrate.micro")
	h.hot.migrHome = h.Counters.Handle("migrate.home")
	h.hot.vipiDropped = h.Counters.Handle("vipi.dropped")
	h.hot.vipiRetried = h.Counters.Handle("vipi.retried")
	h.hot.vipiLost = h.Counters.Handle("vipi.lost")
	return h
}

// NormalPool returns the normal cpupool.
func (h *Hypervisor) NormalPool() *Pool { return h.normal }

// MicroCount returns the number of pCPUs currently in the micro pool.
func (h *Hypervisor) MicroCount() int { return len(h.micro.pcpus) }

// accrueMicro folds the interval elapsed at the current micro-pool size
// into the size-over-time integral. Call immediately before any change to
// the micro pool's membership.
func (h *Hypervisor) accrueMicro() {
	now := h.Clock.Now()
	h.microArea += int64(len(h.micro.pcpus)) * int64(now-h.microSince)
	h.microSince = now
}

// MicroCoreNs returns the time integral of the micro pool's size over
// [0, now] in core·nanoseconds — the hypervisor-side residency ledger the
// conformance harness reconciles against the controller's MicroGauge.
func (h *Hypervisor) MicroCoreNs(now simtime.Time) int64 {
	return h.microArea + int64(len(h.micro.pcpus))*int64(now-h.microSince)
}

// Domains returns the created domains.
func (h *Hypervisor) Domains() []*Domain { return h.domains }

// VCPUs returns all vCPUs across domains.
func (h *Hypervisor) VCPUs() []*VCPU { return h.vcpus }

// PCPU returns pCPU i.
func (h *Hypervisor) PCPU(i int) *PCPU { return h.pcpus[i] }

// AllPCPUs returns every pCPU in ID order, online or not (conservation
// checks sum Busy across the whole machine).
func (h *Hypervisor) AllPCPUs() []*PCPU { return h.pcpus }

// OnlinePCPUs returns the number of pCPUs currently online machine-wide.
// The recovery supervisor compares it against its attach-time baseline to
// detect capacity loss.
func (h *Hypervisor) OnlinePCPUs() int {
	n := 0
	for _, p := range h.pcpus {
		if !p.offline {
			n++
		}
	}
	return n
}

// RelabelDomains reassigns domain IDs: the domain created i-th takes ID
// perm[i], and the table returned by Domains is re-sorted so that
// Domains()[id].ID == id keeps holding. Call after all domains and vCPUs
// exist and before Start.
//
// Domain IDs are pure labels — nothing in the scheduler keys behaviour on
// them — so a relabelled run must produce bit-identical scheduling
// counters. The conformance harness (internal/check) verifies exactly that;
// a component that accidentally indexes per-domain state by creation slot
// instead of ID shows up as a relation violation.
func (h *Hypervisor) RelabelDomains(perm []int) error {
	if h.started {
		return fmt.Errorf("hv: RelabelDomains after Start")
	}
	if len(perm) != len(h.domains) {
		return fmt.Errorf("hv: RelabelDomains: %d permutation entries for %d domains", len(perm), len(h.domains))
	}
	seen := make([]bool, len(perm))
	for _, id := range perm {
		if id < 0 || id >= len(perm) || seen[id] {
			return fmt.Errorf("hv: RelabelDomains: %v is not a permutation of 0..%d", perm, len(perm)-1)
		}
		seen[id] = true
	}
	relabeled := make([]*Domain, len(h.domains))
	for i, d := range h.domains {
		d.ID = perm[i]
		relabeled[d.ID] = d
		for _, v := range d.VCPUs {
			v.DomID = d.ID
		}
	}
	h.domains = relabeled
	if h.Obs != nil {
		for _, v := range h.vcpus {
			h.Obs.EnsureVCPU(v.ID, int16(v.DomID), int16(v.Idx))
		}
	}
	return nil
}

// NewDomain creates a domain.
func (h *Hypervisor) NewDomain(name string, symbolMap []byte) *Domain {
	d := &Domain{
		ID:        len(h.domains),
		Name:      name,
		Weight:    DefaultWeight,
		Counters:  metrics.NewSet(),
		SymbolMap: symbolMap,
	}
	for r := range yieldName {
		d.hot.yieldBy[r] = d.Counters.Handle(yieldName[r])
	}
	d.hot.yieldTotal = d.Counters.Handle("yield.total")
	d.hot.vipiSent = d.Counters.Handle("vipi.sent")
	d.hot.virqSent = d.Counters.Handle("virq.sent")
	d.hot.irqDeferred = d.Counters.Handle("irq.deferred")
	d.hot.migrMicro = d.Counters.Handle("migrate.micro")
	h.domains = append(h.domains, d)
	return d
}

// AddVCPU attaches a guest context as a new vCPU of domain d. The vCPU
// starts Blocked; wake it with Wake once the guest has work.
func (h *Hypervisor) AddVCPU(d *Domain, g GuestContext) *VCPU {
	v := &VCPU{
		ID:       len(h.vcpus),
		DomID:    d.ID,
		Idx:      len(d.VCPUs),
		Dom:      d,
		Guest:    g,
		state:    StateBlocked,
		prio:     PrioUnder,
		credits:  h.Cfg.CreditCap,
		pool:     h.normal,
		homePool: h.normal,
		lastPCPU: len(h.vcpus) % len(h.pcpus),
		pin:      -1,
	}
	d.VCPUs = append(d.VCPUs, v)
	h.vcpus = append(h.vcpus, v)
	if h.Obs != nil {
		h.Obs.EnsureVCPU(v.ID, int16(v.DomID), int16(v.Idx))
	}
	return v
}

// SetObserver attaches (or detaches, with nil) the observability layer,
// registering every existing pCPU and vCPU with it. Call before Start.
func (h *Hypervisor) SetObserver(o *obs.Observer) {
	h.Obs = o
	if o == nil {
		return
	}
	o.EnsurePCPUs(len(h.pcpus))
	for _, v := range h.vcpus {
		o.EnsureVCPU(v.ID, int16(v.DomID), int16(v.Idx))
	}
}

// Start launches the periodic scheduler tick. Call once, before running
// the clock.
func (h *Hypervisor) Start() {
	if h.started {
		panic("hv: Start called twice")
	}
	h.started = true
	n := simtime.Duration(len(h.pcpus))
	for i, p := range h.pcpus {
		p := p
		offset := h.Cfg.Tick * simtime.Duration(i+1) / n
		p.tickPhase = offset % h.Cfg.Tick
		p.tick.Arm(offset)
	}
	h.acct.Arm(h.Cfg.Tick * simtime.Duration(h.Cfg.TicksPerAcct))
}

func (h *Hypervisor) count(name string) { h.Counters.Counter(name).Inc() }

func (h *Hypervisor) emit(k trace.Kind, v *VCPU, arg0, arg1 uint64) {
	if !h.Trace.Retains() {
		h.Trace.Tally(k)
		return
	}
	r := trace.Record{Time: h.Clock.Now(), Kind: k, Arg0: arg0, Arg1: arg1}
	if v != nil {
		r.Dom = int16(v.DomID)
		r.VCPU = int16(v.Idx)
		if v.pcpu != nil {
			r.PCPU = int16(v.pcpu.ID)
		} else {
			r.PCPU = -1
		}
	}
	h.Trace.Emit(r)
}
