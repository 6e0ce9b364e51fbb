// Package experiment reproduces every table and figure of the paper's
// evaluation (§3, §6) on the simulated testbed: a 12-pCPU host running the
// credit scheduler, consolidating 12-vCPU VMs at a 2:1 ratio, with the
// micro-sliced-core mechanism off (Baseline), statically sized (Static
// 1..6), or adaptive (Dynamic, Algorithm 1).
package experiment

import (
	"fmt"
	"io"
	"runtime/debug"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/recovery"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
	"github.com/microslicedcore/microsliced/internal/vdisk"
	"github.com/microslicedcore/microsliced/internal/vnet"
	"github.com/microslicedcore/microsliced/internal/workload"
)

// Defaults matching the paper's testbed (§6.1).
const (
	DefaultPCPUs    = 12
	DefaultVCPUs    = 12
	DefaultDuration = 3 * simtime.Second
)

// VMSpec describes one consolidated virtual machine. The public facade
// exposes it as microsliced.VM.
type VMSpec struct {
	Name  string // identifies the VM in the results
	App   string // workload catalog name (workload.Catalog)
	VCPUs int    // 0: DefaultVCPUs
	Seed  uint64 // drives the workload's random durations
	// Disk attaches a virtual block device (required by storage-bound
	// workloads such as "fileserver").
	Disk bool
	// Weight overrides the domain's credit1 proportional-share weight
	// (0: hv.DefaultWeight).
	Weight int
	// Pins pins vCPU j of this VM to pCPU Pins[j]. Negative entries leave
	// that vCPU unpinned; a slice shorter than the vCPU count leaves the
	// remainder unpinned. Pinning a serving VM onto its co-runner's pCPU
	// reproduces the paper's consolidated shape (Figure 9).
	Pins []int
	// Serve attaches an open-loop request-serving workload: a virtual NIC,
	// a seeded Poisson arrival process (vnet.RequestFlow) and one server
	// thread per vCPU (workload.RequestServer). Composes with App — the
	// app's threads co-run inside the same VM, the paper's Figure 9 mixed
	// shape. App may be empty for a pure serving VM.
	Serve *ServeSpec
	// Stream attaches the paper's iPerf server (§3.3, §6.2): a virtual NIC,
	// a socket and a server thread on vCPU 0, fed by a bulk "udp" or "tcp"
	// stream over a 1 Gbit link. The server thread is created before the
	// App's threads, so App "lookbusy" on a 1-vCPU VM is the paper's mixed
	// vCPU. App may be empty for a pure iPerf VM. A VM has one NIC, so
	// Stream and Serve exclude each other.
	Stream string `json:",omitempty"`
}

// DefaultServeSLO is the end-to-end latency objective when ServeSpec.SLOMs
// is 0.
const DefaultServeSLO = 5 * simtime.Millisecond

// ServeSpec configures a VM's open-loop request-serving workload. The
// public facade exposes it as microsliced.ServeConfig. Latency is measured
// from each request's intended arrival instant, so the reported quantiles
// are coordinated-omission-free; requests tail-dropped at the full NIC ring
// count against the SLO.
type ServeSpec struct {
	RatePerSec int     // mean offered load, Poisson arrivals (required)
	SLOMs      float64 // end-to-end latency objective in ms (0: DefaultServeSLO)
	ReqBytes   int     // request packet size (0: vnet.DefaultReqBytes)
	RingCap    int     // NIC RX ring capacity (0: vnet.DefaultRingSize)
	Seed       uint64  // drives the arrival process and service-time draws
}

// Setup is a complete scenario.
type Setup struct {
	PCPUs    int
	VMs      []VMSpec
	Core     core.Config
	Duration simtime.Duration
	// StaggerStart delays VM i's start by i*7ms, letting co-runner
	// scheduling phases drift as they do on real hardware.
	StaggerStart bool
	// HVConfig, when non-nil, overrides the hypervisor configuration
	// (ablation studies: slice lengths, runqueue limits, migrate-back).
	HVConfig *hv.Config
	// Rival, when set, installs a prior-work system (internal/rivals) in
	// place of the paper's mechanism; Core should be ModeOff.
	Rival Rival
	// Faults, when non-nil and enabled, injects the configured
	// deterministic faults (internal/fault) into the run.
	Faults *fault.Config
	// Audit arms the scheduler invariant auditor; violations land in
	// Result.Violations. Enabled automatically when Faults are active.
	Audit bool
	// Recovery, when non-nil, attaches the self-healing supervisor
	// (internal/recovery): detect→repair of starved vCPUs, lost IPIs and
	// capacity loss. Repairs land in Result.Repairs; with a quiesce point
	// in Faults, the quiesce→last-repair time lands in Result.MTTR.
	Recovery *recovery.Config
	// Obs, when non-nil, attaches the observability layer: state
	// accounting, latency spans and the flight recorder. The end-of-run
	// read-out lands in Result.Telemetry.
	Obs *obs.Config
	// TraceExport, when non-nil, receives the run's trace ring as Chrome
	// trace-event JSON after the clock stops. Implies a large trace ring.
	TraceExport io.Writer
	// DomRelabel, when non-nil, permutes domain IDs after every domain is
	// created (hv.RelabelDomains): the VM in slot i gets domain ID
	// DomRelabel[i]. Domain IDs are pure labels, so a relabelled run must
	// produce identical results slot for slot — the metamorphic relation
	// internal/check exercises.
	DomRelabel []int
	// PostCheck, when non-nil, runs after the clock stops and the Result is
	// collected, with the live simulation world still intact. A returned
	// error fails the Run. The conformance harness hangs its conservation
	// checks here.
	PostCheck func(*PostRun) error
	// Instrument, when non-nil, is called with the run's hypervisor after
	// every attachment and just before Start. The conformance harness
	// installs its lockstep reference picker (hv.Hypervisor.CheckPick)
	// here.
	Instrument func(*hv.Hypervisor)
}

// CoreConfig lowers a mode name to the controller configuration a Setup
// runs under: "" or "off" is the paper's Baseline (vanilla credit
// scheduling), "static" a fixed pool of staticCores micro-sliced cores, and
// "dynamic" the pool sized by Algorithm 1.
func CoreConfig(mode string, staticCores int) (core.Config, error) {
	switch mode {
	case "", "off":
		return offConfig(), nil
	case "static":
		return core.StaticConfig(staticCores), nil
	case "dynamic":
		return core.DefaultConfig(), nil
	}
	return core.Config{}, fmt.Errorf("unknown mode %q (want off, static or dynamic)", mode)
}

// PostRun is the post-run view handed to Setup.PostCheck and the
// process-wide check hook (SetCheckHook): the settled Setup and Result plus
// the live hypervisor, the observer (nil when the run had none) and the
// final virtual time.
type PostRun struct {
	Setup  *Setup
	Result *Result
	HV     *hv.Hypervisor
	Obs    *obs.Observer
	Ctrl   *core.Controller
	Now    simtime.Time
}

// watchdogLimit is the livelock threshold: this many consecutive events at
// an unchanged virtual time means the event loop is spinning without
// progress. Real runs stay orders of magnitude below it (a full 12-pCPU
// scheduling round at one instant is tens of events).
const watchdogLimit = 1_000_000

// VMResult carries one VM's measurements.
type VMResult struct {
	Name     string
	App      string
	Units    uint64
	Yields   YieldBreakdown
	TLB      *metrics.Histogram
	LockStat map[string]*metrics.Histogram
	RanTotal simtime.Duration
	// VCPURan is each vCPU's execution time — the per-vCPU progress
	// record fault tests assert on (no vCPU may starve under injection).
	VCPURan []simtime.Duration
	// Requests is the serving read-out (nil unless the VM had a Serve
	// spec).
	Requests *RequestStats
	// Stream is the iPerf read-out (nil unless the VM had a Stream).
	Stream *IOMeasure `json:",omitempty"`
}

// RequestStats is the end-of-run read-out of a VM's serving workload. The
// counters and residency terms come from independent ledgers (arrival
// flow, NIC ring, in-flight softirq batches, sockets, server pool), so
// internal/check can reconcile them against each other: offered ==
// dropped + admitted; admitted == ring + softirq + delivered; delivered ==
// consumed + socket-resident; consumed == completed + in-service.
type RequestStats struct {
	Offered   uint64 // arrivals fired (intended instants)
	Admitted  uint64 // accepted into the NIC ring
	Dropped   uint64 // tail-dropped at the full ring — SLO violations
	Completed uint64 // replies transmitted
	Late      uint64 // completed past the SLO
	InFlight  uint64 // offered - dropped - completed at run end

	RingResident    int    // still in the NIC ring
	SoftirqResident int    // fetched, not yet delivered (mid-softirq)
	SockResident    int    // delivered, not yet consumed
	InService       int    // consumed, reply not yet transmitted
	Delivered       uint64 // Σ socket deliveries
	Consumed        uint64 // Σ socket consumes

	SLO simtime.Duration
	// Latency quantiles (ns) of completed requests, measured from the
	// intended arrival instant (coordinated-omission-free).
	P50, P99, P999, Max int64

	OfferedRPS float64
	GoodputRPS float64 // completed-within-SLO requests per second of run time
}

// YieldBreakdown decomposes yields by source (paper Figure 7).
type YieldBreakdown struct {
	IPI   uint64
	PLE   uint64
	Halt  uint64
	Other uint64
}

// Total sums all yield sources.
func (y YieldBreakdown) Total() uint64 { return y.IPI + y.PLE + y.Halt + y.Other }

// Result is the outcome of one scenario run.
type Result struct {
	VMs        []VMResult
	HV         map[string]uint64
	Core       map[string]uint64
	SymbolHits map[string]uint64
	MicroAvg   float64
	Duration   simtime.Duration
	// Violations holds what the invariant auditor found (empty unless
	// Setup.Audit or fault injection was enabled).
	Violations []hv.InvariantError
	// FaultErrs records injected faults the hypervisor refused to apply
	// (e.g. a hotplug landing on the last normal-pool pCPU).
	FaultErrs []string
	// Telemetry is the observability read-out (nil unless Setup.Obs was
	// set): span latency quantiles, per-vCPU/pCPU residency, flight dumps.
	Telemetry *obs.Summary
	// Repairs is the supervisor's retained repair ring and RepairCount its
	// exact total (zero-valued unless Setup.Recovery was set).
	Repairs     []trace.Repair
	RepairCount uint64
	// MTTR is the quiesce→last-repair convergence time (0 without a
	// supervisor, without a fault quiesce point, or when no repair was
	// needed after quiesce).
	MTTR simtime.Duration
	// LostIPIs is the number of interrupts still in the hypervisor's
	// lost-IPI ledger at run end — a converged recovery run drains it to 0.
	LostIPIs int
	// Decisions is the adaptive controller's retained decision audit ring
	// (oldest first) and DecisionCount its exact total including aged-out
	// entries. Decisions carry no domain identifiers, so the conformance
	// harness requires the trail to be bit-identical across the relabel,
	// observer and trace metamorphic relations.
	Decisions     []trace.Decision
	DecisionCount uint64
}

// VM returns the result of the named VM.
func (r *Result) VM(name string) *VMResult {
	for i := range r.VMs {
		if r.VMs[i].Name == name {
			return &r.VMs[i]
		}
	}
	return nil
}

// Run executes a scenario to completion and collects the measurements.
// Panics anywhere inside the simulation are recovered and returned as
// errors, so one corrupt scenario cannot take down a whole grid.
func Run(s Setup) (res *Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("experiment: panic in scenario: %v\n%s", r, debug.Stack())
		}
	}()
	if s.PCPUs == 0 {
		s.PCPUs = DefaultPCPUs
	}
	if s.PCPUs < 0 {
		return nil, fmt.Errorf("experiment: PCPUs %d negative", s.PCPUs)
	}
	if s.Duration == 0 {
		s.Duration = DefaultDuration
	}
	if s.Duration < 0 {
		return nil, fmt.Errorf("experiment: Duration %v negative", s.Duration)
	}
	for _, vm := range s.VMs {
		if vm.VCPUs < 0 {
			return nil, fmt.Errorf("experiment: VM %s: VCPUs %d negative", vm.Name, vm.VCPUs)
		}
		if vm.Weight < 0 {
			return nil, fmt.Errorf("experiment: VM %s: Weight %d negative", vm.Name, vm.Weight)
		}
		for j, pin := range vm.Pins {
			if pin >= s.PCPUs {
				return nil, fmt.Errorf("experiment: VM %s: vCPU %d pinned to pCPU %d of %d", vm.Name, j, pin, s.PCPUs)
			}
		}
		if err := CheckStream(vm); err != nil {
			return nil, fmt.Errorf("experiment: VM %s: %v", vm.Name, err)
		}
	}
	if s.Obs == nil {
		s.Obs = defaultObs.Load()
	}
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	if s.HVConfig != nil {
		cfg = *s.HVConfig
	}
	cfg.PCPUs = s.PCPUs
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}

	var plan *fault.Plan
	faultsOn := s.Faults != nil && s.Faults.Enabled()
	if faultsOn {
		plan, err = fault.New(*s.Faults, s.PCPUs, s.Duration)
		if err != nil {
			return nil, err
		}
		s.Audit = true
	}
	if (s.Audit || s.Obs != nil) && cfg.TraceCapacity < 256 {
		// Violations and flight dumps carry the trace-ring tail; make sure
		// there is one.
		cfg.TraceCapacity = 256
	}
	if s.TraceExport != nil && cfg.TraceCapacity < 1<<18 {
		// Exported timelines want the whole run, not just a tail.
		cfg.TraceCapacity = 1 << 18
	}
	h := hv.New(clock, cfg)
	var observer *obs.Observer
	if s.Obs != nil {
		observer = obs.New(*s.Obs)
		h.SetObserver(observer)
	}
	if plan != nil {
		plan.Attach(h)
		if observer != nil {
			plan.OnFault = func(event string) {
				observer.Flight(clock.Now(), "fault", event, h.Trace.Tail(obs.FlightDepth))
			}
		}
	}
	var auditor *hv.Auditor
	if s.Audit {
		var onViolation func(*hv.InvariantError)
		if observer != nil {
			onViolation = func(e *hv.InvariantError) {
				observer.Flight(e.Time, "invariant:"+e.Rule, e.Detail, e.Trace)
			}
		}
		auditor = h.EnableAudit(onViolation)
	}
	var sup *recovery.Supervisor
	if s.Recovery != nil {
		sup = recovery.Attach(h, *s.Recovery)
	}

	// Livelock watchdog: pure observation (never schedules events), so it
	// is always armed and cannot perturb results.
	var wdInfo *simtime.WatchdogInfo
	clock.SetWatchdog(watchdogLimit, func(info simtime.WatchdogInfo) {
		wdInfo = &info
		clock.Stop()
	})

	kernels := make([]*guest.Kernel, len(s.VMs))
	apps := make([]*workload.App, len(s.VMs))
	disks := make([]*vdisk.Disk, len(s.VMs))
	rigs := make([]nicRig, len(s.VMs))
	for i, vm := range s.VMs {
		n := vm.VCPUs
		if n == 0 {
			n = DefaultVCPUs
		}
		kernels[i] = guest.NewKernel(h, vm.Name, n, ksym.Generate(1000+uint64(i)), guest.DefaultParams())
		if vm.Disk || workload.NeedsDisk(vm.App) {
			disks[i] = vdisk.New(clock, 5000+vm.Seed)
			kernels[i].AttachDisk(disks[i])
		}
		if vm.Stream != "" {
			// The server thread is created before the App's threads: a
			// vCPU queues its threads in creation order, and the order
			// moves the stream's jitter.
			stream, serr := buildStream(clock, h, kernels[i], vm.Stream)
			if serr != nil {
				return nil, fmt.Errorf("experiment: VM %s: %v", vm.Name, serr)
			}
			rigs[i].stream = stream
		}
		switch {
		case vm.App == "" && rigs[i].stream != nil:
			apps[i] = rigs[i].stream.app
		case vm.App == "" && vm.Serve != nil:
			apps[i] = workload.Empty("serve", kernels[i])
		default:
			app, aerr := workload.New(vm.App, kernels[i], vm.Seed)
			if aerr != nil {
				return nil, fmt.Errorf("experiment: VM %s: %v", vm.Name, aerr)
			}
			apps[i] = app
		}
		if vm.Serve != nil {
			rig, serr := buildServe(clock, h, kernels[i], apps[i], vm.Serve, n)
			if serr != nil {
				return nil, fmt.Errorf("experiment: VM %s: %v", vm.Name, serr)
			}
			rigs[i] = rig
		}
		if plan != nil {
			plan.AttachGuest(kernels[i])
		}
	}
	if s.DomRelabel != nil {
		if err := h.RelabelDomains(s.DomRelabel); err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
	}
	// Domain IDs are final from here on; anything keyed on them (disk span
	// attribution, weights, pins, the detector's symtabs via core.Attach)
	// comes after the relabel point.
	for i, vm := range s.VMs {
		d := kernels[i].Dom
		if disks[i] != nil && observer != nil {
			disks[i].Obs = observer
			disks[i].ObsDom = int16(d.ID)
		}
		if vm.Weight > 0 {
			d.Weight = vm.Weight
		}
		for j, pin := range vm.Pins {
			if j >= len(d.VCPUs) {
				break
			}
			if pin >= 0 {
				d.VCPUs[j].Pin(pin)
			}
		}
	}
	ctrl, err := core.Attach(h, s.Core)
	if err != nil {
		return nil, err
	}
	if s.Core.UserCS {
		for _, k := range kernels {
			ctrl.RegisterUserRegions(k.Dom.ID, k.UserRegions())
		}
	}
	var rivalStart func()
	if s.Rival != RivalNone {
		rivalStart, err = attachRival(h, s.Rival)
		if err != nil {
			return nil, err
		}
	}
	if s.Instrument != nil {
		s.Instrument(h)
	}
	h.Start()
	ctrl.Start()
	if rivalStart != nil {
		rivalStart()
	}
	for i, k := range kernels {
		// A serving VM's arrival process and an iPerf stream start with
		// their kernel, riding the same stagger.
		start := k.StartAll
		if flow := rigs[i].flow; flow != nil {
			start = func() {
				k.StartAll()
				flow.Start()
			}
		} else if stream := rigs[i].stream; stream != nil {
			start = func() {
				k.StartAll()
				stream.start()
			}
		}
		if s.StaggerStart && i > 0 {
			clock.At(simtime.Time(i)*7*simtime.Millisecond, start)
		} else {
			start()
		}
	}
	clock.RunUntil(s.Duration)
	if wdInfo != nil {
		return nil, fmt.Errorf(
			"experiment: event-loop livelock at t=%v: %d events without the clock advancing (recent events: %v)",
			wdInfo.Now, wdInfo.SameTimeEvents, wdInfo.RecentLabels)
	}
	res = collect(s, h, ctrl, kernels, apps, rigs)
	if auditor != nil {
		res.Violations = auditor.Violations()
	}
	if plan != nil {
		for _, e := range plan.HotplugErrs {
			res.FaultErrs = append(res.FaultErrs, e.Error())
		}
	}
	res.LostIPIs = h.LostIPICount()
	if sup != nil {
		if sup.Repairs.Len() > 0 {
			// A supervisor that never fired reads out like none at all.
			res.Repairs = sup.Repairs.All()
		}
		res.RepairCount = sup.Repairs.Total()
		if s.Faults != nil && s.Faults.QuiesceAt > 0 {
			res.MTTR = sup.MTTR(simtime.Time(s.Faults.QuiesceAt))
		}
	}
	if observer != nil {
		if ferr := observer.FlightErr(); ferr != nil {
			return nil, fmt.Errorf("experiment: flight recorder: %w", ferr)
		}
		res.Telemetry = observer.Summary(clock.Now())
	}
	if s.TraceExport != nil {
		names := make(map[int16]string, len(kernels))
		for i, k := range kernels {
			names[int16(k.Dom.ID)] = s.VMs[i].Name
		}
		meta := obs.ExportMeta{DomainNames: names, Decisions: res.Decisions}
		if res.Telemetry != nil {
			// Embed the span/stage aggregates so microtrace blame can
			// recompute the attribution table offline from the trace alone.
			meta.Spans = res.Telemetry.Spans
		}
		if err := obs.WriteChromeTrace(s.TraceExport, h.Trace.Records(), meta); err != nil {
			return nil, fmt.Errorf("experiment: trace export: %v", err)
		}
	}
	pr := &PostRun{Setup: &s, Result: res, HV: h, Obs: observer, Ctrl: ctrl, Now: clock.Now()}
	if s.PostCheck != nil {
		if cerr := s.PostCheck(pr); cerr != nil {
			return nil, fmt.Errorf("experiment: post-run check: %w", cerr)
		}
	}
	if fn := checkHook.Load(); fn != nil {
		if cerr := (*fn)(pr); cerr != nil {
			return nil, fmt.Errorf("experiment: post-run check: %w", cerr)
		}
	}
	if fn := runHook.Load(); fn != nil {
		(*fn)(s, res)
	}
	return res, nil
}

// nicRig bundles one VM's NIC-fed workload for start and collection: a
// serving composition (nic, flow, pool, kernel) or an iPerf stream.
type nicRig struct {
	nic    *vnet.NIC
	flow   *vnet.RequestFlow
	pool   *workload.ServerPool
	kernel *guest.Kernel
	stream *streamRig
}

// buildServe composes a VM's serving workload: NIC, per-vCPU sockets and
// server threads, and the open-loop arrival flow. The NIC reads its
// domain's ID dynamically, so building before a DomRelabel is safe.
func buildServe(clock *simtime.Clock, h *hv.Hypervisor, k *guest.Kernel, app *workload.App, sv *ServeSpec, vcpus int) (nicRig, error) {
	nic := vnet.NewNIC(h, k.Dom, sv.RingCap)
	k.AttachNIC(nic)
	slo := simtime.Duration(sv.SLOMs * float64(simtime.Millisecond))
	if slo == 0 {
		slo = DefaultServeSLO
	}
	flow, err := vnet.NewRequestFlow(clock, nic, sv.RatePerSec, sv.ReqBytes, slo, vcpus, sv.Seed)
	if err != nil {
		return nicRig{}, err
	}
	pool := workload.RequestServer(app, flow, sv.Seed+1)
	return nicRig{nic: nic, flow: flow, pool: pool, kernel: k}, nil
}

// requestStats builds the end-of-run serving read-out from the rig's
// independent ledgers.
func requestStats(rig nicRig, dur simtime.Duration) *RequestStats {
	f := rig.flow
	st := &RequestStats{
		Offered:         f.Offered,
		Admitted:        rig.nic.RxPackets,
		Dropped:         f.Dropped,
		Completed:       f.Completed,
		Late:            f.Late,
		InFlight:        f.InFlight(),
		RingResident:    rig.nic.RingLen(),
		SoftirqResident: rig.kernel.NetPktsInFlight(),
		InService:       rig.pool.InService(),
		SLO:             f.SLO(),
	}
	for _, sock := range rig.pool.Sockets {
		st.SockResident += sock.Len()
		st.Delivered += sock.Delivered
		st.Consumed += sock.Consumed
	}
	if f.Lat.Count() > 0 {
		st.P50 = f.Lat.Quantile(0.50)
		st.P99 = f.Lat.Quantile(0.99)
		st.P999 = f.Lat.Quantile(0.999)
		st.Max = f.Lat.Max()
	}
	if secs := dur.Seconds(); secs > 0 {
		st.OfferedRPS = float64(f.Offered) / secs
		st.GoodputRPS = float64(f.Completed-f.Late) / secs
	}
	return st
}

func collect(s Setup, h *hv.Hypervisor, ctrl *core.Controller, kernels []*guest.Kernel, apps []*workload.App, rigs []nicRig) *Result {
	res := &Result{
		HV:         h.Counters.Snapshot(),
		Core:       ctrl.Counters.Snapshot(),
		SymbolHits: ctrl.SymbolHits(),
		MicroAvg:   ctrl.MicroGauge.TimeAverage(int64(h.Clock.Now())),
		Duration:   s.Duration,

		Decisions:     ctrl.Decisions.All(),
		DecisionCount: ctrl.Decisions.Total(),
	}
	for i, k := range kernels {
		d := k.Dom
		var ran simtime.Duration
		perVCPU := make([]simtime.Duration, 0, len(d.VCPUs))
		for _, v := range d.VCPUs {
			ran += v.RanTotal()
			perVCPU = append(perVCPU, v.RanTotal())
		}
		var reqs *RequestStats
		if rigs[i].flow != nil {
			reqs = requestStats(rigs[i], s.Duration)
		}
		var stream *IOMeasure
		if rigs[i].stream != nil {
			stream = rigs[i].stream.measure()
		}
		res.VMs = append(res.VMs, VMResult{
			Name:     s.VMs[i].Name,
			App:      s.VMs[i].App,
			Requests: reqs,
			Stream:   stream,
			Units:    apps[i].Units(),
			Yields: YieldBreakdown{
				IPI:   d.Counters.Value("yield.ipi"),
				PLE:   d.Counters.Value("yield.ple"),
				Halt:  d.Counters.Value("yield.halt"),
				Other: d.Counters.Value("yield.other"),
			},
			TLB:      k.TLBStat,
			LockStat: k.LockStat,
			RanTotal: ran,
			VCPURan:  perVCPU,
		})
	}
	return res
}

// offConfig is the vanilla-Xen baseline.
func offConfig() core.Config {
	c := core.DefaultConfig()
	c.Mode = core.ModeOff
	return c
}

// soloSetup runs one VM alone on the host.
func soloSetup(app string, dur simtime.Duration) Setup {
	return Setup{
		VMs:      []VMSpec{{Name: app, App: app, Seed: 11}},
		Core:     offConfig(),
		Duration: dur,
	}
}

// corunSetup consolidates the target VM with a swaptions VM at 2:1.
func corunSetup(app string, cc core.Config, dur simtime.Duration) Setup {
	return Setup{
		VMs: []VMSpec{
			{Name: app, App: app, Seed: 11},
			{Name: "swaptions", App: "swaptions", Seed: 22},
		},
		Core:         cc,
		Duration:     dur,
		StaggerStart: true,
	}
}
