// Package rivals implements the prior-work systems the paper compares
// against in its Table 1, so the comparison can be *measured* instead of
// merely tabulated:
//
//   - FixedMicroSliced — Ahn et al. (MICRO'14): one short time slice on
//     every core. Addresses every symptom but taxes all user-level
//     execution with context-switch and cache-refill costs (the paper's
//     motivation for precise selection).
//   - VTurbo — Xu et al. (ATC'13): a statically dedicated, micro-sliced
//     "turbo" core that all device-IRQ processing is steered to. Helps
//     I/O latency and throughput, but knows nothing about locks or TLB
//     shootdowns, and its core is reserved whether or not I/O happens.
//   - VTRS — Teabe et al. (EuroSys'16): runtime profiling classifies each
//     *whole vCPU* by its time-slice preference and applies a per-vCPU
//     quantum. Coarse granularity: a vCPU mixing I/O and cache-sensitive
//     compute has no right time slice, and classification lags behaviour
//     changes.
//
// Each rival attaches to the hypervisor exactly the way internal/core
// does (hooks plus pool/slice manipulation), so all systems are compared
// on identical scenarios by internal/experiment's Table-1 benchmark.
package rivals

import (
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// ---------------------------------------------------------------------------
// Fixed micro-slicing (global short quantum)
// ---------------------------------------------------------------------------

// FixedMicroSliced applies one sub-millisecond quantum to every pCPU.
type FixedMicroSliced struct {
	h     *hv.Hypervisor
	Slice simtime.Duration
}

// NewFixedMicroSliced prepares the global short-slice configuration.
// Because the slice is a pool property, callers construct the hypervisor
// with hv.Config.NormalSlice set via ShortSliceConfig; this wrapper exists
// so the comparison harness treats all systems uniformly.
func NewFixedMicroSliced(h *hv.Hypervisor, slice simtime.Duration) *FixedMicroSliced {
	if slice <= 0 {
		slice = 100 * simtime.Microsecond
	}
	return &FixedMicroSliced{h: h, Slice: slice}
}

// ShortSliceConfig returns the hypervisor configuration for the global
// short quantum.
func ShortSliceConfig(slice simtime.Duration) hv.Config {
	cfg := hv.DefaultConfig()
	if slice <= 0 {
		slice = 100 * simtime.Microsecond
	}
	cfg.NormalSlice = slice
	return cfg
}

// Start activates the system (after hv.Start): every vCPU gets the short
// quantum (covers hypervisors constructed without ShortSliceConfig).
func (f *FixedMicroSliced) Start() {
	for _, v := range f.h.VCPUs() {
		v.SetSliceOverride(f.Slice)
	}
}

// ---------------------------------------------------------------------------
// vTurbo
// ---------------------------------------------------------------------------

// VTurbo dedicates a static micro-sliced core pool and steers device-IRQ
// recipients onto it. (The original also modifies the guest to pin I/O
// handling threads there; routing the IRQ-recipient vCPU is the
// hypervisor-side equivalent available without guest changes.)
type VTurbo struct {
	h        *hv.Hypervisor
	Cores    int
	Counters *metrics.Set
}

// NewVTurbo attaches the vTurbo policy with the given number of turbo
// cores (1 in the original).
func NewVTurbo(h *hv.Hypervisor, cores int) *VTurbo {
	if cores <= 0 {
		cores = 1
	}
	v := &VTurbo{h: h, Cores: cores, Counters: metrics.NewSet()}
	h.Hooks.OnVIRQRelay = v.onVIRQ
	return v
}

// Start activates the system (after hv.Start): the turbo pool is static.
func (v *VTurbo) Start() {
	v.h.SetMicroCount(v.Cores)
}

// onVIRQ steers every preempted IRQ recipient to the turbo pool —
// unconditionally, since vTurbo has no notion of which kernel service is
// pending; that is its whole policy.
func (v *VTurbo) onVIRQ(target *hv.VCPU) {
	if target.State() != hv.StateRunnable || target.OnMicro() {
		return
	}
	v.Counters.Counter("steer.attempt").Inc()
	if v.h.MigrateToMicro(target) {
		v.Counters.Counter("steer.ok").Inc()
	}
}

// ---------------------------------------------------------------------------
// Co-scheduling
// ---------------------------------------------------------------------------

// CoSched is relaxed gang scheduling (VMware-style, paper §2.2): every
// period, the next domain's runnable vCPUs are force-dispatched 1:1 onto
// the pCPUs, so sibling vCPUs execute together and spinlock holders / TLB
// shootdown recipients are never preempted relative to each other. Idle
// slots are backfilled work-conservingly ("relaxed"); the cost is the
// synchronized preemption of whatever else was running, and scalability
// limits as vCPU counts grow.
type CoSched struct {
	h      *hv.Hypervisor
	Period simtime.Duration
	active int
}

// NewCoSched attaches gang scheduling with the given rotation period
// (default 30 ms, one slice).
func NewCoSched(h *hv.Hypervisor, period simtime.Duration) *CoSched {
	if period <= 0 {
		period = 30 * simtime.Millisecond
	}
	return &CoSched{h: h, Period: period}
}

// Start activates the system (after hv.Start).
func (c *CoSched) Start() {
	c.h.Clock.After(simtime.Millisecond, c.step)
}

func (c *CoSched) step() {
	doms := c.h.Domains()
	if len(doms) > 0 {
		c.active = (c.active + 1) % len(doms)
		dom := doms[c.active]
		pcpus := c.h.NormalPool().PCPUs()
		for i, v := range dom.VCPUs {
			if i >= len(pcpus) {
				break
			}
			c.h.ForceDispatch(pcpus[i], v)
		}
	}
	c.h.Clock.After(c.Period, c.step)
}

// ---------------------------------------------------------------------------
// vTRS
// ---------------------------------------------------------------------------

// VTRSClass is a vCPU time-slice class.
type VTRSClass uint8

// vTRS classes (Teabe et al. §3).
const (
	VTRSDefault       VTRSClass = iota // 30 ms
	VTRSLockIntensive                  // shorter slice: spreads lock-holder exposure
	VTRSIOIntensive                    // short slice: frequent scheduling turns
)

// String names the class.
func (c VTRSClass) String() string {
	switch c {
	case VTRSLockIntensive:
		return "lock"
	case VTRSIOIntensive:
		return "io"
	default:
		return "default"
	}
}

// VTRS profiles each vCPU periodically, groups vCPUs by their inferred
// time-slice preference, partitions the pCPUs among the groups
// (proportionally to group size, at least one pCPU per non-empty group),
// pins each group to its partition, and applies the class quantum — the
// CPU-pool scheduling of the original system.
type VTRS struct {
	h        *hv.Hypervisor
	Counters *metrics.Set

	// Epoch between re-classifications.
	Epoch simtime.Duration
	// LockSlice / IOSlice are the class quanta.
	LockSlice simtime.Duration
	IOSlice   simtime.Duration
	// Thresholds are events per epoch that trigger a class.
	LockThreshold uint64
	IOThreshold   uint64

	lastYields map[*hv.VCPU]uint64
	lastVIRQ   map[*hv.VCPU]uint64
	classes    map[*hv.VCPU]VTRSClass
}

// NewVTRS attaches the vTRS profiler-classifier.
func NewVTRS(h *hv.Hypervisor) *VTRS {
	return &VTRS{
		h:             h,
		Counters:      metrics.NewSet(),
		Epoch:         100 * simtime.Millisecond,
		LockSlice:     simtime.Millisecond,
		IOSlice:       simtime.Millisecond,
		LockThreshold: 50,
		IOThreshold:   20,
		lastYields:    make(map[*hv.VCPU]uint64),
		lastVIRQ:      make(map[*hv.VCPU]uint64),
		classes:       make(map[*hv.VCPU]VTRSClass),
	}
}

// Start activates the system (after hv.Start).
func (t *VTRS) Start() {
	t.h.Clock.After(t.Epoch, t.step)
}

// classify updates every vCPU's class from its event deltas.
func (t *VTRS) classify() {
	for _, v := range t.h.VCPUs() {
		yields := v.YieldsBy(hv.YieldPLE) + v.YieldsBy(hv.YieldIPIWait)
		virqs := v.VIRQReceived()
		dy := yields - t.lastYields[v]
		dq := virqs - t.lastVIRQ[v]
		t.lastYields[v] = yields
		t.lastVIRQ[v] = virqs

		cls := VTRSDefault
		switch {
		case dq >= t.IOThreshold:
			cls = VTRSIOIntensive
		case dy >= t.LockThreshold:
			cls = VTRSLockIntensive
		}
		if t.classes[v] != cls {
			t.classes[v] = cls
			t.Counters.Counter("reclassify").Inc()
		}
	}
}

func (t *VTRS) sliceFor(c VTRSClass) simtime.Duration {
	switch c {
	case VTRSIOIntensive:
		return t.IOSlice
	case VTRSLockIntensive:
		return t.LockSlice
	default:
		return 0 // pool default (30 ms)
	}
}

// step reclassifies, repartitions the pCPUs among the classes present and
// repins every vCPU into its class partition with the class quantum.
func (t *VTRS) step() {
	t.classify()
	vcpus := t.h.VCPUs()
	pcpus := t.h.NormalPool().Size()

	// Stable class order; count members.
	order := []VTRSClass{VTRSDefault, VTRSLockIntensive, VTRSIOIntensive}
	count := map[VTRSClass]int{}
	for _, v := range vcpus {
		count[t.classes[v]]++
	}
	groups := 0
	for _, c := range order {
		if count[c] > 0 {
			groups++
		}
	}
	if groups <= 1 || pcpus < 2 {
		// One class (or nothing to partition): unpin, apply the quantum.
		for _, v := range vcpus {
			t.h.RePin(v, -1)
			v.SetSliceOverride(t.sliceFor(t.classes[v]))
		}
		t.h.Clock.After(t.Epoch, t.step)
		return
	}

	// Proportional partition with at least one pCPU per non-empty group.
	share := map[VTRSClass]int{}
	assigned := 0
	for _, c := range order {
		if count[c] == 0 {
			continue
		}
		n := count[c] * pcpus / len(vcpus)
		if n < 1 {
			n = 1
		}
		share[c] = n
		assigned += n
	}
	// Trim or pad to exactly the available pCPUs (largest group absorbs).
	largest := order[0]
	for _, c := range order {
		if count[c] > count[largest] {
			largest = c
		}
	}
	share[largest] += pcpus - assigned
	if share[largest] < 1 {
		share[largest] = 1
	}

	// Pin group members round-robin into contiguous pCPU ranges.
	normal := t.h.NormalPool().PCPUs()
	start := 0
	for _, c := range order {
		n := share[c]
		if count[c] == 0 || n <= 0 {
			continue
		}
		i := 0
		for _, v := range vcpus {
			if t.classes[v] != c {
				continue
			}
			p := normal[start+(i%n)]
			t.h.RePin(v, p.ID)
			v.SetSliceOverride(t.sliceFor(c))
			i++
		}
		start += n
		if start > len(normal)-1 {
			start = len(normal) - 1
		}
	}
	t.h.Clock.After(t.Epoch, t.step)
}
