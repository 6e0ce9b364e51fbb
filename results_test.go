package microsliced

import (
	"math"
	"strings"
	"testing"
)

// lawScenario exercises every part of the read-out at once: the dynamic
// controller, a serving VM, fault injection, the supervisor and telemetry.
// It is short enough that neither the decision ring nor the repair ring
// ages anything out.
func lawScenario() Scenario {
	return Scenario{
		VMs: []VM{
			{App: "exim", Serve: &ServeConfig{RatePerSec: 2000}},
			{App: "swaptions"},
		},
		Mode:    Dynamic,
		Seconds: 0.5,
		Faults: &FaultPlan{
			Seed: 7, OfflinePCPUs: 1, PermanentOfflinePCPUs: 1,
			IPIDropProb: 0.05, QuiesceAtMs: 300,
		},
		Recovery:  &RecoveryPlan{},
		Telemetry: &TelemetryConfig{},
	}
}

// TestResultsLaws ties each telemetry and ledger field that no example or
// CLI reads to another field it must agree with, so a read-out that drops
// or miscopies one of them fails here.
func TestResultsLaws(t *testing.T) {
	s := lawScenario()
	res, err := Simulate(s)
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry
	if tel == nil {
		t.Fatal("Results.Telemetry is nil despite Scenario.Telemetry being set")
	}

	// Scheduler counts: the observer and the hypervisor count the same
	// dispatches and steals independently.
	if tel.Dispatches == 0 || tel.Dispatches != res.HypervisorCounters["sched.dispatch"] {
		t.Errorf("Telemetry.Dispatches %d, sched.dispatch %d", tel.Dispatches, res.HypervisorCounters["sched.dispatch"])
	}
	if tel.Steals == 0 || tel.Steals != res.HypervisorCounters["sched.steal"] {
		t.Errorf("Telemetry.Steals %d, sched.steal %d", tel.Steals, res.HypervisorCounters["sched.steal"])
	}

	// Trails: below the ring bounds every event is retained.
	if tel.DecisionCount == 0 || tel.DecisionCount != uint64(len(tel.Decisions)) {
		t.Errorf("DecisionCount %d, %d decisions retained", tel.DecisionCount, len(tel.Decisions))
	}
	for i, d := range tel.Decisions {
		if d.Reason == "" || d.MicroCores > d.Ceiling || d.TimeMs <= 0 || d.TimeMs > s.Seconds*1e3 {
			t.Errorf("decision %d out of range: %+v", i, d)
		}
	}
	if res.RepairCount == 0 || res.RepairCount != uint64(len(res.Repairs)) {
		t.Errorf("RepairCount %d, %d repairs retained", res.RepairCount, len(res.Repairs))
	}

	// Request ledgers are conserved.
	if res.VM("exim").Requests == nil {
		t.Fatal("serving VM has no request read-out")
	}
	for _, vm := range res.VMs {
		if rq := vm.Requests; rq != nil && rq.Offered != rq.Dropped+rq.Completed+rq.InFlight {
			t.Errorf("VM %s: offered %d != dropped %d + completed %d + in flight %d",
				vm.Name, rq.Offered, rq.Dropped, rq.Completed, rq.InFlight)
		}
	}

	// Stages decompose recorded span kinds, and a kind's shares sum to 100.
	if len(tel.Stages) == 0 {
		t.Error("no stage decomposition recorded")
	}
	for kind, cells := range tel.Stages {
		if _, ok := tel.Spans[kind]; !ok {
			t.Errorf("stages for kind %s, which recorded no span", kind)
		}
		sum := 0.0
		for _, c := range cells {
			sum += c.SharePct
		}
		if math.Abs(sum-100) > 1e-9 {
			t.Errorf("kind %s: stage shares sum to %v, want 100", kind, sum)
		}
	}

	// Open spans name only kinds with some left open; the faults leave some.
	if len(tel.OpenSpans) == 0 {
		t.Error("no span open at run end")
	}
	for kind, n := range tel.OpenSpans {
		if n <= 0 {
			t.Errorf("OpenSpans[%s] = %d, want absent or positive", kind, n)
		}
	}

	// The busiest pCPU exists and ran no longer than the run.
	if tel.BusiestPCPU < 0 || tel.BusiestPCPU >= 12 ||
		tel.BusiestPCPUSeconds <= 0 || tel.BusiestPCPUSeconds > s.Seconds {
		t.Errorf("busiest pCPU %d ran %vs of a %vs run", tel.BusiestPCPU, tel.BusiestPCPUSeconds, s.Seconds)
	}
}

// TestResultsFaultErrors: a hotplug the hypervisor refuses is reported in
// FaultErrors. Every vCPU is pinned to pCPUs 1..3, so the dynamic
// controller grows the micro pool onto pCPU 0, and unplugging pCPUs 1..3
// must leave the last normal-pool pCPU in place.
func TestResultsFaultErrors(t *testing.T) {
	res, err := Simulate(Scenario{
		PCPUs:   4,
		VMs:     []VM{{App: "exim", VCPUs: 3, Pins: []int{1, 2, 3}}},
		Mode:    Dynamic,
		Seconds: 0.5,
		Faults:  &FaultPlan{Seed: 3, PermanentOfflinePCPUs: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FaultErrors) != 1 || !strings.Contains(res.FaultErrors[0], "last normal-pool pCPU") {
		t.Fatalf("FaultErrors %q, want one refused unplug of the last normal-pool pCPU", res.FaultErrors)
	}
}
