package microsliced

import (
	"fmt"
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/recovery"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/workload"
)

// Mode selects how the micro-sliced pool is managed in a scenario.
type Mode string

// Mechanism modes.
const (
	// Off runs vanilla Xen credit scheduling (the paper's Baseline).
	Off Mode = "off"
	// Static dedicates a fixed number of micro-sliced cores.
	Static Mode = "static"
	// Dynamic sizes the pool with the paper's Algorithm 1.
	Dynamic Mode = "dynamic"
)

// VM describes one virtual machine of a scenario.
type VM struct {
	// Name identifies the VM in the results (defaults to the App name).
	Name string
	// App is a workload from Workloads().
	App string
	// VCPUs defaults to 12 (the paper's configuration).
	VCPUs int
	// Seed controls the workload's random durations (defaults to a
	// per-index constant).
	Seed uint64
	// Disk attaches a virtual block device (needed by "fileserver").
	Disk bool
	// Pins pins vCPU j of this VM to pCPU Pins[j]; negative entries leave
	// that vCPU unpinned. Pinning a serving VM onto its co-runner's pCPU
	// reproduces the paper's consolidated shape (Figure 9).
	Pins []int
	// Serve, when non-nil, attaches an open-loop request-serving workload
	// to the VM: Poisson request arrivals into its virtual NIC, served by
	// per-vCPU server threads, with end-to-end SLO accounting. The
	// read-out lands in the VM's VMStats.Requests.
	Serve *ServeConfig
}

// ServeConfig configures a VM's open-loop request-serving workload.
// Latency is measured from each request's *intended* arrival instant, so
// the reported quantiles are coordinated-omission-free; requests
// tail-dropped at the full NIC ring count against the SLO.
type ServeConfig struct {
	// RatePerSec is the mean offered load in requests per second
	// (required, Poisson arrivals).
	RatePerSec int
	// SLOMs is the end-to-end latency objective in milliseconds
	// (defaults to 5).
	SLOMs float64
	// ReqBytes sizes each request packet (defaults to 512).
	ReqBytes int
	// RingCap bounds the NIC RX ring (defaults to the NIC default).
	RingCap int
	// Seed drives the arrival process and service-time draws.
	Seed uint64
}

// Scenario is a consolidated-host simulation.
type Scenario struct {
	// PCPUs defaults to 12.
	PCPUs int
	// VMs share the host.
	VMs []VM
	// Mode selects the micro-sliced mechanism (defaults to Off).
	Mode Mode
	// StaticCores sizes the micro pool when Mode == Static.
	StaticCores int
	// Seconds of virtual time to simulate (defaults to 3).
	Seconds float64
	// Stagger starts VM i at i*7ms so co-runner phases drift (defaults
	// to true when more than one VM is present).
	Stagger *bool
	// Rival replaces the paper's mechanism with a prior-work system:
	// "cosched", "fixed-usliced", "vturbo" or "vtrs" (Mode must be Off).
	Rival string
	// Faults, when non-nil, injects the configured deterministic faults.
	// Fault runs automatically arm the invariant auditor.
	Faults *FaultPlan
	// Audit arms the scheduler invariant auditor even without faults;
	// whatever it finds lands in Results.InvariantViolations.
	Audit bool
	// Recovery, when non-nil, attaches the self-healing supervisor; its
	// detections and repairs land in Results.Repairs, and — with a
	// Faults.QuiesceAtMs point — the convergence time in Results.MTTRSeconds.
	Recovery *RecoveryPlan
	// Telemetry, when non-nil, attaches the observability layer (per-vCPU
	// state accounting, latency spans, flight recorder); the read-out lands
	// in Results.Telemetry. The zero config is valid.
	Telemetry *TelemetryConfig
	// TraceJSON, when non-nil, receives the run's scheduling timeline as
	// Chrome trace-event JSON, loadable in Perfetto (ui.perfetto.dev).
	TraceJSON io.Writer
}

// TelemetryConfig enables and tunes a scenario's observability layer.
type TelemetryConfig struct {
	// FlightDir, when non-empty, is a directory receiving one JSON flight
	// dump per triggering event (invariant violation or injected fault).
	// A dump that cannot be written fails Simulate with an error.
	FlightDir string
	// Label tags flight dump filenames (defaults to "run").
	Label string
}

// FaultPlan configures seeded, deterministic fault injection: the same
// plan on the same scenario always reproduces identical results. The zero
// value injects nothing.
type FaultPlan struct {
	// Seed seeds the fault plan's RNG streams.
	Seed uint64
	// OfflinePCPUs hot-unplugs this many pCPUs mid-run and brings them
	// back later; the scheduler and micro-pool controller must rebalance.
	OfflinePCPUs int
	// IPIDelayProb delays a virtual IPI with this probability by up to
	// IPIDelayMaxUs microseconds.
	IPIDelayProb  float64
	IPIDelayMaxUs float64
	// IPIDropProb drops an IPI delivery attempt with this probability
	// (dropped IPIs are retried with bounded backoff, never lost).
	IPIDropProb float64
	// TickJitterUs perturbs scheduler ticks by up to ±TickJitterUs
	// microseconds.
	TickJitterUs float64
	// LockStallProb amplifies a guest critical section with this
	// probability by LockStallFactor.
	LockStallProb   float64
	LockStallFactor float64
	// PermanentOfflinePCPUs hot-unplugs this many additional pCPUs that
	// never come back — permanent capacity loss the supervisor (Recovery)
	// reacts to by re-homing vCPUs and shrinking the micro pool.
	PermanentOfflinePCPUs int
	// Storms overlays this many correlated fault bursts: inside each storm
	// window the IPI drop/delay probabilities, tick jitter and lock-stall
	// amplification are raised to harsh floors simultaneously.
	Storms int
	// StormLenMs is each storm's length (0: a twentieth of the run).
	StormLenMs float64
	// LoseIPIs converts IPI drops that exhaust the bounded retry budget
	// into lost interrupts, parked in a ledger until the supervisor
	// re-drives them. Requires IPIDropProb > 0 or Storms > 0.
	LoseIPIs bool
	// QuiesceAtMs, when positive, stops all fault firing at this point of
	// the run, opening the convergence window MTTR is measured over.
	QuiesceAtMs float64
}

func (f *FaultPlan) toConfig() fault.Config {
	return fault.Config{
		Seed:                  f.Seed,
		OfflinePCPUs:          f.OfflinePCPUs,
		PermanentOfflinePCPUs: f.PermanentOfflinePCPUs,
		IPIDelayProb:          f.IPIDelayProb,
		IPIDelayMax:           simtime.Duration(f.IPIDelayMaxUs * float64(simtime.Microsecond)),
		IPIDropProb:           f.IPIDropProb,
		LoseIPIs:              f.LoseIPIs,
		TickJitter:            simtime.Duration(f.TickJitterUs * float64(simtime.Microsecond)),
		LockStallProb:         f.LockStallProb,
		LockStallFactor:       f.LockStallFactor,
		Storms:                f.Storms,
		StormLen:              simtime.Duration(f.StormLenMs * float64(simtime.Millisecond)),
		QuiesceAt:             simtime.Duration(f.QuiesceAtMs * float64(simtime.Millisecond)),
	}
}

// RecoveryPlan arms the self-healing supervisor: a periodic deterministic
// detector for starved vCPUs, lost IPIs and capacity loss, with escalating
// bounded repairs (credit re-grant, unpin/re-home, forced dispatch, IPI
// re-drive, micro-pool resize). The zero value uses the defaults.
type RecoveryPlan struct {
	// IntervalMs is the supervision walk period (0: the scheduler tick).
	IntervalMs float64
	// StarveBoundMs is how long a vCPU may sit runnable-but-undispatched
	// before the supervisor declares starvation (0: 50ms).
	StarveBoundMs float64
}

// ScenarioError reports an invalid Scenario field.
type ScenarioError struct {
	Field  string
	Reason string
}

func (e *ScenarioError) Error() string {
	return fmt.Sprintf("microsliced: invalid scenario: %s: %s", e.Field, e.Reason)
}

// rivalNames are the accepted Scenario.Rival values.
var rivalNames = map[string]bool{
	"fixed-usliced": true, "vturbo": true, "vtrs": true, "cosched": true,
}

// Validate checks the scenario without running it, returning a
// *ScenarioError describing the first problem found (nil if valid).
func (s Scenario) Validate() error {
	if len(s.VMs) == 0 {
		return &ScenarioError{Field: "VMs", Reason: "scenario has no VMs"}
	}
	if s.PCPUs < 0 {
		return &ScenarioError{Field: "PCPUs", Reason: fmt.Sprintf("%d is negative", s.PCPUs)}
	}
	if s.Seconds < 0 {
		return &ScenarioError{Field: "Seconds", Reason: fmt.Sprintf("%v is negative", s.Seconds)}
	}
	pcpus := s.PCPUs
	if pcpus == 0 {
		pcpus = experiment.DefaultPCPUs
	}
	for i, vm := range s.VMs {
		if vm.VCPUs < 0 {
			return &ScenarioError{
				Field:  fmt.Sprintf("VMs[%d].VCPUs", i),
				Reason: fmt.Sprintf("%d is negative (0 selects the default)", vm.VCPUs),
			}
		}
		if !workload.Known(vm.App) {
			return &ScenarioError{
				Field:  fmt.Sprintf("VMs[%d].App", i),
				Reason: fmt.Sprintf("unknown application %q (have %v)", vm.App, workload.Catalog()),
			}
		}
		for j, pin := range vm.Pins {
			if pin >= pcpus {
				return &ScenarioError{
					Field:  fmt.Sprintf("VMs[%d].Pins[%d]", i, j),
					Reason: fmt.Sprintf("pCPU %d does not exist (host has %d)", pin, pcpus),
				}
			}
		}
		if sv := vm.Serve; sv != nil {
			if sv.RatePerSec <= 0 {
				return &ScenarioError{
					Field:  fmt.Sprintf("VMs[%d].Serve.RatePerSec", i),
					Reason: fmt.Sprintf("%d must be positive", sv.RatePerSec),
				}
			}
			if sv.SLOMs < 0 {
				return &ScenarioError{
					Field:  fmt.Sprintf("VMs[%d].Serve.SLOMs", i),
					Reason: fmt.Sprintf("%v is negative", sv.SLOMs),
				}
			}
			if sv.ReqBytes < 0 {
				return &ScenarioError{
					Field:  fmt.Sprintf("VMs[%d].Serve.ReqBytes", i),
					Reason: fmt.Sprintf("%d is negative", sv.ReqBytes),
				}
			}
			if sv.RingCap < 0 {
				return &ScenarioError{
					Field:  fmt.Sprintf("VMs[%d].Serve.RingCap", i),
					Reason: fmt.Sprintf("%d is negative", sv.RingCap),
				}
			}
		}
	}
	switch s.Mode {
	case Off, Static, Dynamic, "":
	default:
		return &ScenarioError{Field: "Mode", Reason: fmt.Sprintf("unknown mode %q", s.Mode)}
	}
	if s.StaticCores < 0 {
		return &ScenarioError{Field: "StaticCores", Reason: fmt.Sprintf("%d is negative", s.StaticCores)}
	}
	if s.StaticCores > pcpus {
		return &ScenarioError{
			Field:  "StaticCores",
			Reason: fmt.Sprintf("%d exceeds the host's %d pCPUs", s.StaticCores, pcpus),
		}
	}
	if s.Rival != "" {
		if !rivalNames[s.Rival] {
			return &ScenarioError{Field: "Rival", Reason: fmt.Sprintf("unknown rival %q", s.Rival)}
		}
		if s.Mode != Off && s.Mode != "" {
			return &ScenarioError{
				Field:  "Rival",
				Reason: fmt.Sprintf("rival %q requires Mode == Off, got %q", s.Rival, s.Mode),
			}
		}
	}
	if s.Faults != nil {
		if err := s.Faults.toConfig().Validate(); err != nil {
			return &ScenarioError{Field: "Faults", Reason: err.Error()}
		}
		if off := s.Faults.OfflinePCPUs + s.Faults.PermanentOfflinePCPUs; off > pcpus-1 {
			return &ScenarioError{
				Field:  "Faults.OfflinePCPUs",
				Reason: fmt.Sprintf("%d offline pCPUs leave no core online (host has %d)", off, pcpus),
			}
		}
	}
	if r := s.Recovery; r != nil {
		if r.IntervalMs < 0 {
			return &ScenarioError{Field: "Recovery.IntervalMs", Reason: fmt.Sprintf("%v is negative", r.IntervalMs)}
		}
		if r.StarveBoundMs < 0 {
			return &ScenarioError{Field: "Recovery.StarveBoundMs", Reason: fmt.Sprintf("%v is negative", r.StarveBoundMs)}
		}
	}
	return nil
}

// VMStats is one VM's outcome.
type VMStats struct {
	Name string
	App  string
	// WorkUnits counts completed application iterations (messages,
	// flush cycles, compute bursts, ...). Ratios of WorkUnits between
	// runs of equal Seconds give normalized execution time / throughput.
	WorkUnits uint64
	// Yields decomposed by source.
	YieldsIPI, YieldsSpinlock, YieldsHalt, YieldsOther uint64
	// CPUSeconds of virtual execution time across the VM's vCPUs.
	CPUSeconds float64
	// TLBSyncAvgUs / TLBSyncMaxUs summarize TLB-shootdown latency.
	TLBSyncAvgUs, TLBSyncMaxUs float64
	// LockWaitAvgUs is the mean contended spinlock wait per Lockstat
	// class.
	LockWaitAvgUs map[string]float64
	// Requests is the serving read-out (nil unless the VM had a Serve
	// config).
	Requests *RequestStats
}

// RequestStats is the end-to-end outcome of a VM's request-serving
// workload. The ledger is exact and conserved: Offered == Dropped +
// Completed + InFlight.
type RequestStats struct {
	// Offered counts arrivals fired at their intended instants; Dropped
	// those tail-dropped at the full NIC ring (SLO violations); Completed
	// those whose reply was transmitted; Late the completed ones that
	// missed the SLO; InFlight those still in the pipeline at run end.
	Offered, Dropped, Completed, Late, InFlight uint64
	// SLOMs is the objective the run was judged against.
	SLOMs float64
	// Latency quantiles (ms) of completed requests, measured from the
	// intended arrival (coordinated-omission-free).
	P50Ms, P99Ms, P999Ms, MaxMs float64
	// OfferedRPS and GoodputRPS are offered load and completed-within-SLO
	// throughput over the run.
	OfferedRPS, GoodputRPS float64
}

// SLOAttainment is the fraction of offered requests served within the
// SLO (1 when nothing was offered).
func (r *RequestStats) SLOAttainment() float64 {
	if r.Offered == 0 {
		return 1
	}
	return 1 - float64(r.Dropped+r.Late)/float64(r.Offered)
}

// TotalYields sums the yield sources.
func (s *VMStats) TotalYields() uint64 {
	return s.YieldsIPI + s.YieldsSpinlock + s.YieldsHalt + s.YieldsOther
}

// Results is the outcome of Simulate.
type Results struct {
	VMs []VMStats
	// MicroCoresAvg is the time-weighted mean size of the micro pool.
	MicroCoresAvg float64
	// HypervisorCounters exposes raw scheduler counters (dispatches,
	// migrations, boosts, ...).
	HypervisorCounters map[string]uint64
	// DetectorCounters exposes the micro-sliced controller's counters.
	DetectorCounters map[string]uint64
	// CriticalSymbolHits histograms the critical kernel symbols observed
	// at preempted vCPUs' instruction pointers.
	CriticalSymbolHits map[string]uint64
	// InvariantViolations lists what the scheduler auditor found (empty
	// unless Scenario.Audit or fault injection was enabled; always empty
	// on a healthy scheduler).
	InvariantViolations []string
	// FaultErrors lists injected faults the hypervisor refused to apply.
	FaultErrors []string
	// Repairs lists the supervisor's retained detections and repairs in
	// order (empty unless Scenario.Recovery was set), and RepairCount the
	// exact total including any that aged out of the retained ring.
	Repairs     []string
	RepairCount uint64
	// MTTRSeconds is the quiesce→last-repair convergence time (0 without a
	// supervisor, a fault quiesce point, or any post-quiesce repairs).
	MTTRSeconds float64
	// LostIPIs counts interrupts still in the lost-IPI ledger at run end; a
	// converged recovery run drains it to zero.
	LostIPIs int
	// Telemetry is the observability read-out (nil unless
	// Scenario.Telemetry was set).
	Telemetry *Telemetry
}

// SpanStats summarizes one latency span kind's distribution and names its
// dominant stage (the struct stays comparable: stage detail lives in
// Telemetry.Stages).
type SpanStats struct {
	Count  uint64  `json:"count"`
	P50us  float64 `json:"p50_us"`
	P99us  float64 `json:"p99_us"`
	P999us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
	// Blame names the stage that consumed the largest share of the kind's
	// total closed-span time, and BlamePct that share in percent.
	Blame    string  `json:"blame,omitempty"`
	BlamePct float64 `json:"blame_pct,omitempty"`
}

// StageStats summarizes one stage of a span kind: its share of the kind's
// total time (a kind's shares sum to exactly 100.0) and the distribution of
// its per-span accumulation.
type StageStats struct {
	Count    uint64  `json:"count"`
	SharePct float64 `json:"share_pct"`
	TotalMs  float64 `json:"total_ms"`
	P50us    float64 `json:"p50_us"`
	P99us    float64 `json:"p99_us"`
	P999us   float64 `json:"p999_us"`
	MaxUs    float64 `json:"max_us"`
}

// Telemetry is a scenario's observability read-out.
type Telemetry struct {
	// Spans maps span kind — "wake_dispatch", "ipi_deliver",
	// "lock_acquire", "disk_io", "net_rx" — to its latency distribution.
	// Kinds never observed are absent.
	Spans map[string]SpanStats `json:"spans"`
	// Stages decomposes each recorded span kind causally: Stages[kind] maps
	// stage name (e.g. "runq_wait", "preempt_wait") to its latency budget.
	// Σ stage durations == span duration exactly for every closed span.
	Stages map[string]map[string]StageStats `json:"stages,omitempty"`
	// OpenSpans attributes spans still open at run end to their kinds
	// (kinds with none open are absent) — a persistent entry here means a
	// span leak on that path.
	OpenSpans map[string]int `json:"open_spans,omitempty"`
	// BusiestPCPU is the pCPU with the most execution time, and
	// BusiestPCPUSeconds that time.
	BusiestPCPU        int     `json:"busiest_pcpu"`
	BusiestPCPUSeconds float64 `json:"busiest_pcpu_seconds"`
	// Dispatches and Steals count scheduler dispatches host-wide and how
	// many of them ran a vCPU stolen from another pCPU's runqueue.
	Dispatches uint64 `json:"dispatches"`
	Steals     uint64 `json:"steals"`
	// FlightDumps counts flight-recorder triggers during the run.
	FlightDumps int `json:"flight_dumps"`
	// Decisions is the adaptive controller's retained decision audit trail
	// (oldest first; a bounded ring) and DecisionCount its exact total
	// including entries that aged out of the ring. Empty unless the
	// scenario ran the dynamic controller.
	Decisions     []ControllerDecision `json:"decisions,omitempty"`
	DecisionCount uint64               `json:"decision_count,omitempty"`
}

// ControllerDecision is one Algorithm 1 sizing decision from the adaptive
// controller's audit trail.
type ControllerDecision struct {
	TimeMs float64 `json:"t_ms"`
	Epoch  uint64  `json:"epoch"`
	// Reason is the decision path taken: "idle", "single", "ipi-search",
	// "best-pick", "stability-skip" or "capacity-clamp".
	Reason string `json:"reason"`
	// MicroCores is the achieved pool size; Ceiling the live capacity
	// bound the decision ran under (smaller than the configured maximum
	// after pCPU hot-unplug).
	MicroCores int `json:"micro_cores"`
	Ceiling    int `json:"ceiling"`
	// IPIs/PLEs/IRQs are the urgent-event counts of the classified sample.
	IPIs uint64 `json:"ipis"`
	PLEs uint64 `json:"ples"`
	IRQs uint64 `json:"irqs"`
}

// Span returns the stats of one span kind (zero value if never observed).
func (t *Telemetry) Span(kind string) SpanStats { return t.Spans[kind] }

// Stage returns the stats of one (kind, stage) cell (zero value if never
// observed).
func (t *Telemetry) Stage(kind, stage string) StageStats { return t.Stages[kind][stage] }

// VM returns the stats of the named VM (nil if absent).
func (r *Results) VM(name string) *VMStats {
	for i := range r.VMs {
		if r.VMs[i].Name == name {
			return &r.VMs[i]
		}
	}
	return nil
}

// Workloads lists the available applications (the paper's suite).
func Workloads() []string { return workload.Catalog() }

// Simulate runs a scenario to completion and returns its measurements.
// Runs are deterministic: the same scenario always produces the same
// results.
func Simulate(s Scenario) (*Results, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	setup := experiment.Setup{PCPUs: s.PCPUs, Audit: s.Audit, TraceExport: s.TraceJSON}
	if s.Telemetry != nil {
		setup.Obs = &obs.Config{FlightDir: s.Telemetry.FlightDir, Label: s.Telemetry.Label}
	}
	if s.Faults != nil {
		fc := s.Faults.toConfig()
		setup.Faults = &fc
	}
	if s.Recovery != nil {
		setup.Recovery = &recovery.Config{
			Interval:    simtime.Duration(s.Recovery.IntervalMs * float64(simtime.Millisecond)),
			StarveBound: simtime.Duration(s.Recovery.StarveBoundMs * float64(simtime.Millisecond)),
		}
	}
	if s.Seconds > 0 {
		setup.Duration = simtime.Duration(s.Seconds * float64(simtime.Second))
	}
	if s.Stagger != nil {
		setup.StaggerStart = *s.Stagger
	} else {
		setup.StaggerStart = len(s.VMs) > 1
	}
	for i, vm := range s.VMs {
		name := vm.Name
		if name == "" {
			name = vm.App
		}
		seed := vm.Seed
		if seed == 0 {
			seed = uint64(11 * (i + 1))
		}
		spec := experiment.VMSpec{
			Name: name, App: vm.App, VCPUs: vm.VCPUs, Seed: seed, Disk: vm.Disk,
			Pins: append([]int(nil), vm.Pins...),
		}
		if sv := vm.Serve; sv != nil {
			spec.Serve = &experiment.ServeSpec{
				RatePerSec: sv.RatePerSec,
				ReqBytes:   sv.ReqBytes,
				SLO:        simtime.Duration(sv.SLOMs * float64(simtime.Millisecond)),
				RingCap:    sv.RingCap,
				Seed:       sv.Seed,
			}
		}
		setup.VMs = append(setup.VMs, spec)
	}
	switch s.Mode {
	case Off, "":
		cc := core.DefaultConfig()
		cc.Mode = core.ModeOff
		setup.Core = cc
	case Static:
		setup.Core = core.StaticConfig(s.StaticCores)
	case Dynamic:
		setup.Core = core.DefaultConfig()
	default:
		return nil, fmt.Errorf("microsliced: unknown mode %q", s.Mode)
	}
	if s.Rival != "" {
		if s.Mode != Off && s.Mode != "" {
			return nil, fmt.Errorf("microsliced: rival %q requires Mode == Off", s.Rival)
		}
		setup.Rival = experiment.Rival(s.Rival)
	}
	res, err := experiment.Run(setup)
	if err != nil {
		return nil, err
	}
	out := &Results{
		MicroCoresAvg:      res.MicroAvg,
		HypervisorCounters: res.HV,
		DetectorCounters:   res.Core,
		CriticalSymbolHits: res.SymbolHits,
		FaultErrors:        res.FaultErrs,
		RepairCount:        res.RepairCount,
		MTTRSeconds:        res.MTTR.Seconds(),
		LostIPIs:           res.LostIPIs,
	}
	for i := range res.Violations {
		out.InvariantViolations = append(out.InvariantViolations, res.Violations[i].Error())
	}
	for _, e := range res.Repairs {
		out.Repairs = append(out.Repairs, e.String())
	}
	if res.Telemetry != nil {
		out.Telemetry = publicTelemetry(res)
	}
	for _, vm := range res.VMs {
		st := VMStats{
			Name:           vm.Name,
			App:            vm.App,
			WorkUnits:      vm.Units,
			YieldsIPI:      vm.Yields.IPI,
			YieldsSpinlock: vm.Yields.PLE,
			YieldsHalt:     vm.Yields.Halt,
			YieldsOther:    vm.Yields.Other,
			CPUSeconds:     vm.RanTotal.Seconds(),
			LockWaitAvgUs:  map[string]float64{},
		}
		if vm.TLB.Count() > 0 {
			st.TLBSyncAvgUs = vm.TLB.Mean() / 1000
			st.TLBSyncMaxUs = float64(vm.TLB.Max()) / 1000
		}
		for class, h := range vm.LockStat {
			if h.Count() > 0 {
				st.LockWaitAvgUs[class] = h.Mean() / 1000
			}
		}
		if rq := vm.Requests; rq != nil {
			st.Requests = &RequestStats{
				Offered:    rq.Offered,
				Dropped:    rq.Dropped,
				Completed:  rq.Completed,
				Late:       rq.Late,
				InFlight:   rq.InFlight,
				SLOMs:      float64(rq.SLO) / 1e6,
				P50Ms:      float64(rq.P50) / 1e6,
				P99Ms:      float64(rq.P99) / 1e6,
				P999Ms:     float64(rq.P999) / 1e6,
				MaxMs:      float64(rq.Max) / 1e6,
				OfferedRPS: rq.OfferedRPS,
				GoodputRPS: rq.GoodputRPS,
			}
		}
		out.VMs = append(out.VMs, st)
	}
	return out, nil
}

// publicTelemetry converts the run's observability summary and decision
// trail to the exported shape (nanoseconds become microseconds, residency
// collapses to headline figures).
func publicTelemetry(res *experiment.Result) *Telemetry {
	sum := res.Telemetry
	t := &Telemetry{
		Spans:       make(map[string]SpanStats, len(sum.Spans)),
		FlightDumps: len(sum.Flights),
	}
	for _, sp := range sum.Spans {
		if sp.Open > 0 {
			if t.OpenSpans == nil {
				t.OpenSpans = make(map[string]int)
			}
			t.OpenSpans[sp.Kind] = sp.Open
		}
		if sp.Count == 0 {
			continue
		}
		t.Spans[sp.Kind] = SpanStats{
			Count:    sp.Count,
			P50us:    float64(sp.P50) / 1000,
			P99us:    float64(sp.P99) / 1000,
			P999us:   float64(sp.P999) / 1000,
			MaxUs:    float64(sp.Max) / 1000,
			Blame:    sp.Blame,
			BlamePct: sp.BlamePct,
		}
		if len(sp.Stages) > 0 {
			if t.Stages == nil {
				t.Stages = make(map[string]map[string]StageStats)
			}
			cells := make(map[string]StageStats, len(sp.Stages))
			for _, st := range sp.Stages {
				cells[st.Name] = StageStats{
					Count:    st.Count,
					SharePct: st.Share,
					TotalMs:  float64(st.Total) / 1e6,
					P50us:    float64(st.P50) / 1000,
					P99us:    float64(st.P99) / 1000,
					P999us:   float64(st.P999) / 1000,
					MaxUs:    float64(st.Max) / 1000,
				}
			}
			t.Stages[sp.Kind] = cells
		}
	}
	id, busy := sum.BusiestPCPU()
	t.BusiestPCPU = id
	t.BusiestPCPUSeconds = busy.Seconds()
	for _, p := range sum.PCPUs {
		t.Dispatches += p.Dispatches
		t.Steals += p.Steals
	}
	for _, d := range res.Decisions {
		t.Decisions = append(t.Decisions, ControllerDecision{
			TimeMs:     float64(d.Time) / 1e6,
			Epoch:      d.Epoch,
			Reason:     d.Reason.String(),
			MicroCores: d.Chosen,
			Ceiling:    d.Ceiling,
			IPIs:       d.IPIs,
			PLEs:       d.PLEs,
			IRQs:       d.IRQs,
		})
	}
	t.DecisionCount = res.DecisionCount
	return t
}

// IPerfResult is the outcome of an iPerf scenario.
type IPerfResult struct {
	Mbps     float64
	JitterMs float64
	Loss     float64
}

// SimulateIPerf runs the paper's I/O scenario (§3.3, Figure 9): an iPerf
// server VM — mixed with a CPU hog on the same vCPU when mixed is true,
// and co-located with a lookbusy VM on one pCPU — measuring the
// application-level stream. proto is "tcp" or "udp".
func SimulateIPerf(proto string, mixed bool, mode Mode, staticCores int, seconds float64) (*IPerfResult, error) {
	var cc core.Config
	switch mode {
	case Off, "":
		cc = core.DefaultConfig()
		cc.Mode = core.ModeOff
	case Static:
		cc = core.StaticConfig(staticCores)
	case Dynamic:
		cc = core.DefaultConfig()
	default:
		return nil, fmt.Errorf("microsliced: unknown mode %q", mode)
	}
	dur := simtime.Duration(seconds * float64(simtime.Second))
	if dur <= 0 {
		dur = experiment.DefaultDuration
	}
	m, err := experiment.RunIO(proto, mixed, cc, dur)
	if err != nil {
		return nil, err
	}
	return &IPerfResult{Mbps: m.Mbps, JitterMs: m.JitterMs, Loss: m.Loss}, nil
}

// Experiments lists the reproducible artefacts of the paper's evaluation.
func Experiments() []string {
	return []string{
		"table1", "table2", "table3", "table4a", "table4b", "table4c",
		"fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
	}
}

// Reproduce regenerates one of the paper's tables or figures (see
// Experiments) with the given simulated duration per scenario, rendering
// the result to w.
func Reproduce(name string, seconds float64, w io.Writer) error {
	dur := simtime.Duration(seconds * float64(simtime.Second))
	if dur <= 0 {
		dur = experiment.DefaultDuration
	}
	switch name {
	case "table1":
		r, err := experiment.Table1(dur)
		return render(r, err, w)
	case "table2":
		r, err := experiment.Table2(dur)
		return render(r, err, w)
	case "table3":
		r, err := experiment.Table3(dur)
		return render(r, err, w)
	case "table4a":
		r, err := experiment.Table4a(dur)
		return render(r, err, w)
	case "table4b":
		r, err := experiment.Table4b(dur)
		return render(r, err, w)
	case "table4c":
		r, err := experiment.Table4c(dur)
		return render(r, err, w)
	case "fig4":
		r, err := experiment.Figure4(dur)
		return render(r, err, w)
	case "fig5":
		r, err := experiment.Figure5(dur)
		return render(r, err, w)
	case "fig6":
		r, err := experiment.Figure6(dur, nil)
		return render(r, err, w)
	case "fig7":
		r, err := experiment.Figure7(dur, nil)
		return render(r, err, w)
	case "fig8":
		r, err := experiment.Figure8(dur)
		return render(r, err, w)
	case "fig9":
		r, err := experiment.Figure9(dur)
		return render(r, err, w)
	default:
		return fmt.Errorf("microsliced: unknown experiment %q (have %v)", name, Experiments())
	}
}

type renderer interface{ Render(io.Writer) }

func render(r renderer, err error, w io.Writer) error {
	if err != nil {
		return err
	}
	r.Render(w)
	return nil
}
