// Package check is the property-based, differential conformance harness for
// the whole simulation stack. It draws random scenarios (domains, weights,
// pins, pools, workload mixes, fault plans) from a seed, runs each one
// under a set of metamorphic perturbations that must not matter — observer
// on/off, trace ring on/off, serial vs parallel runner, domain-ID
// relabelling — and verifies both that every variant produces bit-identical
// scheduling counters and that post-run conservation laws hold (runtime,
// credits, counter ledgers, residency, span lifetimes). Any failing
// scenario is greedily shrunk to a minimal repro and dumped as a replayable
// JSON fixture.
package check

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/recovery"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Scenario is a JSON-serializable description of one randomly generated
// run. Everything the simulation needs is derived deterministically from
// these fields, so a scenario loaded from a fixture file replays the exact
// run that produced it.
type Scenario struct {
	Seed       uint64 `json:"seed"`
	PCPUs      int    `json:"pcpus"`
	DurationMs int    `json:"duration_ms"`

	// Mode selects the micro-sliced-core mechanism: "off", "static" (with
	// StaticCores micro pCPUs) or "dynamic" (Algorithm 1).
	Mode        string `json:"mode"`
	StaticCores int    `json:"static_cores,omitempty"`

	Stagger        bool `json:"stagger,omitempty"`
	MicroRunqLimit int  `json:"micro_runq_limit"` // 0: unlimited
	NoReturnHome   bool `json:"no_return_home,omitempty"`
	BoostOff       bool `json:"boost_off,omitempty"`

	// VMs leave Name empty: ToSetup names VM i "vm<i>". A VM with Serve
	// set runs an open-loop request-serving workload, which exercises the
	// request conservation law in Conservation.
	VMs    []experiment.VMSpec `json:"vms"`
	Faults *fault.Spec         `json:"faults,omitempty"`

	// Recovery, when non-nil, arms the self-healing supervisor and marks
	// the scenario as a recovery-conformance run (checked by CheckRecovery
	// against the convergence laws instead of the metamorphic relations).
	Recovery *RecoverySpec `json:"recovery,omitempty"`
}

// RecoverySpec configures the supervisor for a recovery-conformance run.
type RecoverySpec struct {
	recovery.Spec
	// DeadlineMs is the convergence window after the fault quiesce point:
	// past quiesce+deadline no starvation, violation or repair may occur.
	DeadlineMs int `json:"deadline_ms"`
}

// ToSetup lowers the scenario to an experiment Setup, rejecting an unknown
// Mode. Each call builds a fresh hv.Config and fresh VM specs, so callers
// may perturb the returned Setup (trace capacity, observer, relabelling)
// without aliasing.
func (sc Scenario) ToSetup() (experiment.Setup, error) {
	cc, err := experiment.CoreConfig(sc.Mode, sc.StaticCores)
	if err != nil {
		return experiment.Setup{}, fmt.Errorf("check: %w", err)
	}
	cfg := hv.DefaultConfig()
	cfg.MicroRunqLimit = sc.MicroRunqLimit
	cfg.MicroReturnHome = !sc.NoReturnHome
	cfg.BoostEnabled = !sc.BoostOff

	s := experiment.Setup{
		PCPUs:        sc.PCPUs,
		VMs:          cloneVMs(sc.VMs),
		Core:         cc,
		Duration:     simtime.Duration(sc.DurationMs) * simtime.Millisecond,
		StaggerStart: sc.Stagger,
		HVConfig:     &cfg,
	}
	for i := range s.VMs {
		s.VMs[i].Name = fmt.Sprintf("vm%d", i)
	}
	if sc.Faults != nil {
		fc := sc.Faults.Config()
		s.Faults = &fc
	}
	if sc.Recovery != nil {
		rc := sc.Recovery.Config()
		s.Recovery = &rc
	}
	return s, nil
}

// clone deep-copies the scenario (the shrinker mutates candidates freely).
func (sc Scenario) clone() Scenario {
	c := sc
	c.VMs = cloneVMs(sc.VMs)
	if sc.Faults != nil {
		f := *sc.Faults
		c.Faults = &f
	}
	if sc.Recovery != nil {
		r := *sc.Recovery
		c.Recovery = &r
	}
	return c
}

// cloneVMs deep-copies VM specs: pins and serving spec included.
func cloneVMs(vms []experiment.VMSpec) []experiment.VMSpec {
	out := make([]experiment.VMSpec, len(vms))
	for i, vm := range vms {
		vm.Pins = append([]int(nil), vm.Pins...)
		if vm.Serve != nil {
			sv := *vm.Serve
			vm.Serve = &sv
		}
		out[i] = vm
	}
	return out
}
