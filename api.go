package microsliced

import (
	"fmt"
	"io"
	"math"

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

// VM describes one virtual machine of a scenario. Simulate defaults an
// empty Name to the App name and a zero Seed to a per-index constant;
// VCPUs defaults to 12 (the paper's configuration). Serve, when non-nil,
// attaches an open-loop request-serving workload whose read-out lands in
// the VM's VMStats.Requests. Stream ("udp" or "tcp") attaches the paper's
// iPerf server and stream, whose read-out lands in VMStats.Stream; App may
// then be empty.
type VM = experiment.VMSpec

// ServeConfig configures a VM's open-loop request-serving workload
// (RatePerSec is required; SLOMs defaults to 5 ms).
type ServeConfig = experiment.ServeSpec

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

// TelemetryConfig enables and tunes a scenario's observability layer. A
// flight dump that cannot be written under FlightDir fails Simulate with an
// error.
type TelemetryConfig = obs.Config

// FaultPlan configures seeded, deterministic fault injection in ms and µs;
// its fields are documented on fault.Spec. The zero value injects nothing.
type FaultPlan = fault.Spec

// RecoveryPlan arms the self-healing supervisor: a periodic deterministic
// detector for starved vCPUs, lost IPIs and capacity loss, with escalating
// bounded repairs (credit re-grant, unpin/re-home, forced dispatch, IPI
// re-drive, micro-pool resize). Its fields are documented on
// recovery.Spec. The zero value uses the defaults.
type RecoveryPlan = recovery.Spec

// ScenarioError reports an invalid Scenario field.
type ScenarioError struct {
	Field  string
	Reason string
}

func (e *ScenarioError) Error() string {
	return fmt.Sprintf("microsliced: invalid scenario: %s: %s", e.Field, e.Reason)
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
	if err := checkFloat("Seconds", s.Seconds, simtime.Second); err != nil {
		return err
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
		if vm.Weight < 0 {
			return &ScenarioError{
				Field:  fmt.Sprintf("VMs[%d].Weight", i),
				Reason: fmt.Sprintf("%d is negative (0 selects the default)", vm.Weight),
			}
		}
		if err := experiment.CheckStream(vm); err != nil {
			return &ScenarioError{Field: fmt.Sprintf("VMs[%d].Stream", i), Reason: err.Error()}
		}
		pureStream := vm.App == "" && vm.Stream != ""
		if !pureStream && !workload.Known(vm.App) {
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
			if err := checkFloat(fmt.Sprintf("VMs[%d].Serve.SLOMs", i), sv.SLOMs, simtime.Millisecond); err != nil {
				return err
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
	if _, err := experiment.CoreConfig(string(s.Mode), s.StaticCores); err != nil {
		return &ScenarioError{Field: "Mode", Reason: err.Error()}
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
		if _, err := experiment.ParseRival(s.Rival); err != nil {
			return &ScenarioError{Field: "Rival", Reason: err.Error()}
		}
		if s.Mode != Off && s.Mode != "" {
			return &ScenarioError{
				Field:  "Rival",
				Reason: fmt.Sprintf("rival %q requires Mode == Off, got %q", s.Rival, s.Mode),
			}
		}
	}
	if f := s.Faults; f != nil {
		for _, c := range []struct {
			field string
			v     float64
			unit  simtime.Duration
		}{
			{"Faults.IPIDelayProb", f.IPIDelayProb, 0},
			{"Faults.IPIDelayMaxUs", f.IPIDelayMaxUs, simtime.Microsecond},
			{"Faults.IPIDropProb", f.IPIDropProb, 0},
			{"Faults.TickJitterUs", f.TickJitterUs, simtime.Microsecond},
			{"Faults.LockStallProb", f.LockStallProb, 0},
			{"Faults.LockStallFactor", f.LockStallFactor, 0},
			{"Faults.StormLenMs", f.StormLenMs, simtime.Millisecond},
			{"Faults.QuiesceAtMs", f.QuiesceAtMs, simtime.Millisecond},
		} {
			if err := checkFloat(c.field, c.v, c.unit); err != nil {
				return err
			}
		}
		if err := f.Config().Validate(); err != nil {
			return &ScenarioError{Field: "Faults", Reason: err.Error()}
		}
		if off := f.OfflinePCPUs + f.PermanentOfflinePCPUs; off > pcpus-1 {
			return &ScenarioError{
				Field:  "Faults.OfflinePCPUs",
				Reason: fmt.Sprintf("%d offline pCPUs leave no core online (host has %d)", off, pcpus),
			}
		}
	}
	if r := s.Recovery; r != nil {
		if err := checkFloat("Recovery.IntervalMs", r.IntervalMs, simtime.Millisecond); err != nil {
			return err
		}
		if err := checkFloat("Recovery.StarveBoundMs", r.StarveBoundMs, simtime.Millisecond); err != nil {
			return err
		}
	}
	return nil
}

// checkFloat rejects a field that is NaN or infinite and, for a duration
// in units of unit, one that is negative or too long for the simulated
// clock (2^63 ns, about 292 years).
func checkFloat(field string, v float64, unit simtime.Duration) error {
	var reason string
	switch {
	case math.IsNaN(v) || math.IsInf(v, 0):
		reason = "is not a finite number"
	case unit > 0 && v < 0:
		reason = "is negative"
	case v*float64(unit) >= math.MaxInt64:
		reason = "overflows the simulated clock"
	default:
		return nil
	}
	return &ScenarioError{Field: field, Reason: fmt.Sprintf("%v %s", v, reason)}
}

// The result types: Simulate returns the harness's own read-out of the run
// (experiment.Result.View), whose types document each field.
type (
	Results            = experiment.Results            // the outcome of Simulate
	VMStats            = experiment.VMStats            // one VM's outcome
	RequestStats       = experiment.ServeStats         // a VM's request-serving outcome
	StreamStats        = experiment.IOMeasure          // a VM's iPerf stream outcome
	Telemetry          = experiment.Telemetry          // the observability read-out
	SpanStats          = experiment.SpanStats          // one latency span kind
	StageStats         = experiment.StageStats         // one stage of a span kind
	ControllerDecision = experiment.ControllerDecision // one Algorithm 1 sizing decision
)

// Workloads lists the available applications (the paper's suite).
func Workloads() []string { return workload.Catalog() }

// Simulate runs a scenario to completion and returns its measurements.
// Runs are deterministic: the same scenario always produces the same
// results.
func Simulate(s Scenario) (*Results, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	cc, err := experiment.CoreConfig(string(s.Mode), s.StaticCores)
	if err != nil {
		return nil, err
	}
	setup := experiment.Setup{
		PCPUs:       s.PCPUs,
		VMs:         make([]experiment.VMSpec, len(s.VMs)),
		Core:        cc,
		Rival:       experiment.Rival(s.Rival),
		Audit:       s.Audit,
		Obs:         s.Telemetry,
		TraceExport: s.TraceJSON,
	}
	for i, vm := range s.VMs {
		if vm.Name == "" {
			vm.Name = vm.App
		}
		if vm.Seed == 0 {
			vm.Seed = uint64(11 * (i + 1))
		}
		setup.VMs[i] = vm
	}
	if s.Faults != nil {
		fc := s.Faults.Config()
		setup.Faults = &fc
	}
	if s.Recovery != nil {
		rc := s.Recovery.Config()
		setup.Recovery = &rc
	}
	if s.Seconds > 0 {
		setup.Duration = simtime.Duration(s.Seconds * float64(simtime.Second))
	}
	if s.Stagger != nil {
		setup.StaggerStart = *s.Stagger
	} else {
		setup.StaggerStart = len(s.VMs) > 1
	}
	res, err := experiment.Run(setup)
	if err != nil {
		return nil, err
	}
	return res.View(), nil
}

// experiments are the reproducible artefacts of the paper's evaluation, in
// the order Experiments lists them, each with the run that renders it.
var experiments = []struct {
	name string
	run  func(simtime.Duration) (renderer, error)
}{
	{"table1", func(d simtime.Duration) (renderer, error) { return experiment.Table1(d) }},
	{"table2", func(d simtime.Duration) (renderer, error) { return experiment.Table2(d) }},
	{"table3", func(d simtime.Duration) (renderer, error) { return experiment.Table3(d) }},
	{"table4a", func(d simtime.Duration) (renderer, error) { return experiment.Table4a(d) }},
	{"table4b", func(d simtime.Duration) (renderer, error) { return experiment.Table4b(d) }},
	{"table4c", func(d simtime.Duration) (renderer, error) { return experiment.Table4c(d) }},
	{"fig4", func(d simtime.Duration) (renderer, error) { return experiment.Figure4(d) }},
	{"fig5", func(d simtime.Duration) (renderer, error) { return experiment.Figure5(d) }},
	{"fig6", func(d simtime.Duration) (renderer, error) { return experiment.Figure6(d, nil) }},
	{"fig7", func(d simtime.Duration) (renderer, error) { return experiment.Figure7(d, nil) }},
	{"fig8", func(d simtime.Duration) (renderer, error) { return experiment.Figure8(d) }},
	{"fig9", func(d simtime.Duration) (renderer, error) { return experiment.Figure9(d) }},
}

// Experiments lists the reproducible artefacts of the paper's evaluation.
func Experiments() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}

// Reproduce regenerates one of the paper's tables or figures (see
// Experiments) with the given simulated duration per scenario, rendering
// the result to w.
func Reproduce(name string, seconds float64, w io.Writer) error {
	dur := simtime.Duration(seconds * float64(simtime.Second))
	if dur <= 0 {
		dur = experiment.DefaultDuration
	}
	for _, e := range experiments {
		if e.name == name {
			r, err := e.run(dur)
			if err != nil {
				return err
			}
			r.Render(w)
			return nil
		}
	}
	return fmt.Errorf("microsliced: unknown experiment %q (have %v)", name, Experiments())
}

type renderer interface{ Render(io.Writer) }
