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

	VMs    []VMSpec   `json:"vms"`
	Faults *FaultSpec `json:"faults,omitempty"`

	// Recovery, when non-nil, arms the self-healing supervisor and marks
	// the scenario as a recovery-conformance run (checked by CheckRecovery
	// against the convergence laws instead of the metamorphic relations).
	Recovery *RecoverySpec `json:"recovery,omitempty"`
}

// VMSpec is one VM of a scenario.
type VMSpec struct {
	App    string `json:"app"`
	VCPUs  int    `json:"vcpus"`
	Seed   uint64 `json:"seed"`
	Weight int    `json:"weight,omitempty"`
	Pins   []int  `json:"pins,omitempty"`
	// ServeRate, when positive, attaches an open-loop request-serving
	// workload at that offered load (req/s); ServeSeed drives its arrival
	// process and ServeRing bounds the NIC RX ring (0: default). Serving
	// scenarios exercise the request conservation law in Conservation.
	ServeRate int    `json:"serve_rate,omitempty"`
	ServeSeed uint64 `json:"serve_seed,omitempty"`
	ServeRing int    `json:"serve_ring,omitempty"`
}

// FaultSpec is the scenario's fault-injection plan (nil: fault-free).
type FaultSpec struct {
	Seed              uint64  `json:"seed"`
	OfflinePCPUs      int     `json:"offline_pcpus,omitempty"`
	PermanentOffPCPUs int     `json:"permanent_off_pcpus,omitempty"`
	IPIDelayProb      float64 `json:"ipi_delay_prob,omitempty"`
	IPIDelayMaxUs     int     `json:"ipi_delay_max_us,omitempty"`
	IPIDropProb       float64 `json:"ipi_drop_prob,omitempty"`
	LoseIPIs          bool    `json:"lose_ipis,omitempty"`
	TickJitterUs      int     `json:"tick_jitter_us,omitempty"`
	LockStallProb     float64 `json:"lock_stall_prob,omitempty"`
	LockStallFactor   float64 `json:"lock_stall_factor,omitempty"`
	Storms            int     `json:"storms,omitempty"`
	StormLenMs        int     `json:"storm_len_ms,omitempty"`
	QuiesceAtMs       int     `json:"quiesce_at_ms,omitempty"`
}

// RecoverySpec configures the supervisor for a recovery-conformance run.
type RecoverySpec struct {
	// IntervalMs is the supervisor walk period (0: scheduler tick).
	IntervalMs int `json:"interval_ms,omitempty"`
	// StarveBoundMs is the runnable wait that counts as starvation.
	StarveBoundMs int `json:"starve_bound_ms"`
	// DeadlineMs is the convergence window after the fault quiesce point:
	// past quiesce+deadline no starvation, violation or repair may occur.
	DeadlineMs int `json:"deadline_ms"`
}

// ToSetup lowers the scenario to an experiment Setup, rejecting an unknown
// Mode. Each call builds a fresh hv.Config, so callers may perturb the
// returned Setup (trace capacity, observer, relabelling) without aliasing.
func (sc Scenario) ToSetup() (experiment.Setup, error) {
	cc, err := experiment.CoreConfig(sc.Mode, sc.StaticCores)
	if err != nil {
		return experiment.Setup{}, fmt.Errorf("check: %w", err)
	}
	cfg := hv.DefaultConfig()
	cfg.MicroRunqLimit = sc.MicroRunqLimit
	cfg.MicroReturnHome = !sc.NoReturnHome
	cfg.BoostEnabled = !sc.BoostOff

	vms := make([]experiment.VMSpec, len(sc.VMs))
	for i, vm := range sc.VMs {
		vms[i] = experiment.VMSpec{
			Name:   fmt.Sprintf("vm%d", i),
			App:    vm.App,
			VCPUs:  vm.VCPUs,
			Seed:   vm.Seed,
			Weight: vm.Weight,
			Pins:   append([]int(nil), vm.Pins...),
		}
		if vm.ServeRate > 0 {
			vms[i].Serve = &experiment.ServeSpec{
				RatePerSec: vm.ServeRate,
				RingCap:    vm.ServeRing,
				Seed:       vm.ServeSeed,
			}
		}
	}

	s := experiment.Setup{
		PCPUs:        sc.PCPUs,
		VMs:          vms,
		Core:         cc,
		Duration:     simtime.Duration(sc.DurationMs) * simtime.Millisecond,
		StaggerStart: sc.Stagger,
		HVConfig:     &cfg,
	}
	if f := sc.Faults; f != nil {
		s.Faults = &fault.Config{
			Seed:                  f.Seed,
			OfflinePCPUs:          f.OfflinePCPUs,
			PermanentOfflinePCPUs: f.PermanentOffPCPUs,
			IPIDelayProb:          f.IPIDelayProb,
			IPIDelayMax:           simtime.Duration(f.IPIDelayMaxUs) * simtime.Microsecond,
			IPIDropProb:           f.IPIDropProb,
			LoseIPIs:              f.LoseIPIs,
			TickJitter:            simtime.Duration(f.TickJitterUs) * simtime.Microsecond,
			LockStallProb:         f.LockStallProb,
			LockStallFactor:       f.LockStallFactor,
			Storms:                f.Storms,
			StormLen:              simtime.Duration(f.StormLenMs) * simtime.Millisecond,
			QuiesceAt:             simtime.Duration(f.QuiesceAtMs) * simtime.Millisecond,
		}
	}
	if r := sc.Recovery; r != nil {
		s.Recovery = &recovery.Config{
			Interval:    simtime.Duration(r.IntervalMs) * simtime.Millisecond,
			StarveBound: simtime.Duration(r.StarveBoundMs) * simtime.Millisecond,
		}
	}
	return s, nil
}

// clone deep-copies the scenario (the shrinker mutates candidates freely).
func (sc Scenario) clone() Scenario {
	c := sc
	c.VMs = make([]VMSpec, len(sc.VMs))
	for i, vm := range sc.VMs {
		c.VMs[i] = vm
		c.VMs[i].Pins = append([]int(nil), vm.Pins...)
	}
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
