package recovery_test

import (
	"reflect"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/recovery"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// offCore is the vanilla scheduler (no micro pool) — starvation repair is
// scheduler-level, the mechanism is irrelevant here.
func offCore() core.Config {
	c := core.DefaultConfig()
	c.Mode = core.ModeOff
	return c
}

// TestInjectedStarvationDetectRepairConverge wedges a vCPU on purpose — a
// CPU-bound vCPU pinned to a pCPU the fault plan permanently unplugs is
// runnable forever but never selectable — and verifies the supervisor's
// detect→repair→converge contract: the starvation is detected, the pin is
// broken (RepairUnpin), the vCPU makes progress afterwards, and the MTTR is
// finite and inside the convergence window.
func TestInjectedStarvationDetectRepairConverge(t *testing.T) {
	// The quiesce point is deliberately early: the unplug lands inside
	// [20%, 50%] of the pre-quiesce window and the starve bound exceeds the
	// rest of it, so detection and repair necessarily happen after quiesce
	// and the MTTR clock registers them.
	const (
		pcpus   = 4
		dur     = 120 * simtime.Millisecond
		quiesce = 10 * simtime.Millisecond
	)
	fcfg := fault.Config{Seed: 3, PermanentOfflinePCPUs: 1, QuiesceAt: quiesce}
	// The plan is deterministic, so building it once up front tells us which
	// pCPU dies — the run inside the harness redraws the identical schedule.
	plan, err := fault.New(fcfg, pcpus, dur)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Hotplug) != 1 || !plan.Hotplug[0].Permanent {
		t.Fatalf("want one permanent hotplug event, got %+v", plan.Hotplug)
	}
	dead := plan.Hotplug[0].PCPU

	mk := func() experiment.Setup {
		return experiment.Setup{
			PCPUs: pcpus,
			VMs: []experiment.VMSpec{{
				Name: "hog", App: "lookbusy", VCPUs: 2, Seed: 7,
				Pins: []int{dead, -1},
			}},
			Core:     offCore(),
			Duration: dur,
			Faults:   &fcfg,
			Audit:    true,
			Recovery: &recovery.Config{
				Interval:    2 * simtime.Millisecond,
				StarveBound: 10 * simtime.Millisecond,
			},
		}
	}
	res, err := experiment.Run(mk())
	if err != nil {
		t.Fatal(err)
	}

	var detected, unpinned bool
	var lastRepair simtime.Time
	for _, e := range res.Repairs {
		switch e.Kind {
		case trace.DetectStarve:
			detected = true
		case trace.RepairUnpin:
			unpinned = true
		}
		if e.Kind.IsRepair() && e.Time > lastRepair {
			lastRepair = e.Time
		}
	}
	if !detected {
		t.Errorf("supervisor never detected the wedged vCPU (events: %v)", res.Repairs)
	}
	if !unpinned {
		t.Errorf("supervisor never broke the fatal pin (events: %v)", res.Repairs)
	}
	if res.RepairCount == 0 {
		t.Error("RepairCount is zero on a run that needed repairs")
	}
	// The wedged vCPU must have run after the repair: its total execution
	// time has to exceed what it could have accrued before the unplug.
	if got := res.VMs[0].VCPURan[0]; got <= simtime.Duration(plan.Hotplug[0].Off) {
		t.Errorf("wedged vCPU ran %v, want more than the pre-unplug window %v", got, plan.Hotplug[0].Off)
	}
	if res.MTTR <= 0 || res.MTTR > dur-quiesce {
		t.Errorf("MTTR %v outside (0, %v]", res.MTTR, dur-quiesce)
	}
	// Post-repair steady state: no auditor violations after convergence.
	for _, v := range res.Violations {
		if v.Time >= simtime.Time(quiesce)+simtime.Time(res.MTTR) {
			t.Errorf("invariant violation after convergence: %v", v)
		}
	}

	// Repairs are part of the determinism contract: an identical rerun must
	// reproduce the identical repair log, bit for bit.
	res2, err := experiment.Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, res2) {
		t.Error("identical recovery runs produced different results")
	}
}

// TestLostIPIRedrive drives IPI loss hard — high drop probability with the
// LoseIPIs escalation — and verifies the supervisor re-drives every ledger
// entry: at end of run the lost-IPI ledger is drained.
func TestLostIPIRedrive(t *testing.T) {
	fcfg := fault.Config{
		Seed: 11, IPIDropProb: 0.6, LoseIPIs: true,
		QuiesceAt: 40 * simtime.Millisecond,
	}
	s := experiment.Setup{
		PCPUs: 4,
		VMs: []experiment.VMSpec{
			{Name: "a", App: "exim", VCPUs: 2, Seed: 5},
			{Name: "b", App: "dedup", VCPUs: 2, Seed: 6},
		},
		Core:     offCore(),
		Duration: 80 * simtime.Millisecond,
		Faults:   &fcfg,
		Audit:    true,
		Recovery: &recovery.Config{Interval: 2 * simtime.Millisecond},
	}
	res, err := experiment.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.LostIPIs != 0 {
		t.Errorf("lost-IPI ledger not drained: %d entries left", res.LostIPIs)
	}
	var redrives int
	for _, e := range res.Repairs {
		if e.Kind == trace.RepairIPIRedrive {
			redrives++
		}
	}
	if hvLost := res.HV["vipi.lost"]; hvLost > 0 && redrives == 0 {
		t.Errorf("%d IPIs were lost but the supervisor never re-drove any", hvLost)
	}
}

// TestPassiveSupervisorKeepsHealthyRunsIdentical is the metamorphic
// supervisor-off-vs-on relation in its directly-testable form: on a
// fault-free run, arming the supervisor must not change a single counter —
// its walk only adds passive clock events.
func TestPassiveSupervisorKeepsHealthyRunsIdentical(t *testing.T) {
	mk := func(sup bool) experiment.Setup {
		s := experiment.Setup{
			PCPUs: 4,
			VMs: []experiment.VMSpec{
				{Name: "a", App: "dedup", VCPUs: 2, Seed: 5},
				{Name: "b", App: "swaptions", VCPUs: 2, Seed: 6},
			},
			Core:     core.DefaultConfig(),
			Duration: 40 * simtime.Millisecond,
		}
		if sup {
			s.Recovery = &recovery.Config{}
		}
		return s
	}
	off, err := experiment.Run(mk(false))
	if err != nil {
		t.Fatal(err)
	}
	on, err := experiment.Run(mk(true))
	if err != nil {
		t.Fatal(err)
	}
	if on.RepairCount != 0 {
		t.Fatalf("supervisor repaired %d things on a healthy run: %v", on.RepairCount, on.Repairs)
	}
	// Strip the supervisor-only fields before the comparison; everything
	// the scheduler did must match exactly.
	onCmp := *on
	onCmp.Repairs = nil
	for k := range onCmp.HV {
		if len(k) > 9 && k[:9] == "recovery." {
			delete(onCmp.HV, k)
		}
	}
	if !reflect.DeepEqual(off, &onCmp) {
		t.Error("passive supervisor changed a healthy run's results")
	}
}
