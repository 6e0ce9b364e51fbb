package experiment

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

const robustDur = 200 * simtime.Millisecond

func faultSetup(app string, cfg fault.Config) Setup {
	s := corunSetup(app, core.DefaultConfig(), robustDur)
	s.Faults = &cfg
	return s
}

// TestFaultPlanReproducible is the acceptance criterion: two runs of the
// same scenario under the same fault-plan seed are reflect.DeepEqual.
func TestFaultPlanReproducible(t *testing.T) {
	cfg := fault.Config{
		Seed: 7, OfflinePCPUs: 1,
		IPIDelayProb: 0.2, IPIDelayMax: 200 * simtime.Microsecond,
		IPIDropProb: 0.1, TickJitter: simtime.Millisecond,
		LockStallProb: 0.1, LockStallFactor: 4,
	}
	a, err := Run(faultSetup("dedup", cfg))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(faultSetup("dedup", cfg))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical fault plans produced different Results")
	}
}

// TestPCPUOfflineProgress is the acceptance criterion: a hot-unplug
// scenario completes, every vCPU makes progress, and the auditor reports
// zero invariant violations.
func TestPCPUOfflineProgress(t *testing.T) {
	res, err := Run(faultSetup("dedup", fault.Config{Seed: 3, OfflinePCPUs: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.Violations); n != 0 {
		t.Fatalf("auditor reported %d violations, first: %v", n, res.Violations[0])
	}
	if len(res.FaultErrs) != 0 {
		t.Fatalf("hotplug refused: %v", res.FaultErrs)
	}
	if res.HV["hotplug.offline"] != 2 || res.HV["hotplug.online"] != 2 {
		t.Fatalf("hotplug counters off=%d on=%d, want 2/2",
			res.HV["hotplug.offline"], res.HV["hotplug.online"])
	}
	for _, vm := range res.VMs {
		if vm.Units == 0 {
			t.Fatalf("VM %s completed no work units", vm.Name)
		}
		for i, ran := range vm.VCPURan {
			if ran == 0 {
				t.Fatalf("VM %s vCPU %d never ran", vm.Name, i)
			}
		}
	}
}

// TestFaultsPerturbButNeverBreak runs each injector alone and checks the
// scheduler state machine survives (zero violations) while the run still
// completes with progress.
func TestFaultsPerturbButNeverBreak(t *testing.T) {
	for _, c := range faultSweepCases() {
		c := c
		t.Run(c.Name, func(t *testing.T) {
			res, err := Run(faultSetup("dedup", c.Cfg))
			if err != nil {
				t.Fatal(err)
			}
			if n := len(res.Violations); n != 0 {
				t.Fatalf("%d invariant violations, first: %v", n, res.Violations[0])
			}
			for _, vm := range res.VMs {
				if vm.Units == 0 {
					t.Fatalf("VM %s made no progress", vm.Name)
				}
			}
		})
	}
}

// TestIPIDropCountersFire checks the bounded-retry path actually engages:
// drops are counted and retried deliveries eventually land.
func TestIPIDropCountersFire(t *testing.T) {
	res, err := Run(faultSetup("dedup", fault.Config{Seed: 1, IPIDropProb: 0.3}))
	if err != nil {
		t.Fatal(err)
	}
	if res.HV["vipi.sent"] == 0 {
		t.Fatal("scenario sent no IPIs; drop fault untested")
	}
	if res.HV["vipi.dropped"] == 0 {
		t.Fatal("drop probability 0.3 dropped nothing")
	}
	if res.HV["vipi.retried"] == 0 {
		t.Fatal("dropped IPIs were never retried")
	}
}

// TestAuditDoesNotPerturbResults: arming the auditor must not change the
// simulation (it only observes; its clock events add no state mutations).
func TestAuditDoesNotPerturbResults(t *testing.T) {
	base := corunSetup("exim", core.DefaultConfig(), robustDur)
	a, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	audited := base
	audited.Audit = true
	b, err := Run(audited)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Violations) != 0 {
		t.Fatalf("clean run reported violations: %v", b.Violations[0])
	}
	b.Violations = nil
	// The audited run records a trace ring; counters and results must
	// otherwise match the unaudited run exactly.
	if !reflect.DeepEqual(a.VMs, b.VMs) {
		t.Fatal("auditing changed per-VM results")
	}
	if !reflect.DeepEqual(a.HV, b.HV) {
		t.Fatal("auditing changed hypervisor counters")
	}
}

// TestTraceCapacityDoesNotChangeCounts: the hypervisor only tallies trace
// records when the ring keeps none, so a run without a ring must count
// every kind exactly as a run with one and produce the same result.
func TestTraceCapacityDoesNotChangeCounts(t *testing.T) {
	run := func(capacity int) (*Result, [256]uint64) {
		s := corunSetup("exim", core.DefaultConfig(), robustDur)
		cfg := hv.DefaultConfig()
		cfg.TraceCapacity = capacity
		s.HVConfig = &cfg
		var counts [256]uint64
		s.PostCheck = func(pr *PostRun) error {
			for k := range counts {
				counts[k] = pr.HV.Trace.Count(trace.Kind(k))
			}
			return nil
		}
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return res, counts
	}
	bare, bareCounts := run(0)
	ringed, ringedCounts := run(1 << 14)
	if bareCounts != ringedCounts {
		t.Fatalf("per-kind counts differ:\n cap 0:     %v\n cap 1<<14: %v", bareCounts, ringedCounts)
	}
	if bareCounts[trace.KindSchedule] == 0 || bareCounts[trace.KindYield] == 0 {
		t.Fatal("scenario emitted no dispatch or yield records")
	}
	if !reflect.DeepEqual(bare, ringed) {
		t.Fatal("trace capacity changed the run's result")
	}
}

// TestRunRecoversPanics: a scenario that panics inside the simulation
// surfaces as an error, not a crashed process.
func TestRunRecoversPanics(t *testing.T) {
	s := corunSetup("swaptions", core.DefaultConfig(), robustDur)
	s.PostCheck = func(*PostRun) error { panic("boom inside the run") }
	res, err := Run(s)
	if err == nil {
		t.Fatalf("panicking scenario did not error (res=%v)", res != nil)
	}
	if !strings.Contains(err.Error(), "panic") {
		t.Fatalf("expected a recovered panic, got: %v", err)
	}
}

// TestRunRejectsDegenerateHVConfig: a config whose credit-burn quantum
// truncates to zero is refused by validation before the world is built
// (it used to divide by zero mid-run).
func TestRunRejectsDegenerateHVConfig(t *testing.T) {
	s := corunSetup("swaptions", core.DefaultConfig(), robustDur)
	cfg := hv.DefaultConfig()
	cfg.CreditDebitPerTick = 0
	s.HVConfig = &cfg
	_, err := Run(s)
	if err == nil {
		t.Fatal("degenerate hv config accepted")
	}
	var cerr *hv.ConfigError
	if !errors.As(err, &cerr) || cerr.Field != "CreditDebitPerTick" {
		t.Fatalf("expected a CreditDebitPerTick ConfigError, got: %v", err)
	}
}

// TestRunValidatesSetup covers the hardened entry checks.
func TestRunValidatesSetup(t *testing.T) {
	if _, err := Run(Setup{PCPUs: -1, VMs: []VMSpec{{Name: "x", App: "exim"}}}); err == nil {
		t.Fatal("negative PCPUs accepted")
	}
	if _, err := Run(Setup{Duration: -simtime.Second, VMs: []VMSpec{{Name: "x", App: "exim"}}}); err == nil {
		t.Fatal("negative Duration accepted")
	}
	if _, err := Run(Setup{VMs: []VMSpec{{Name: "x", App: "exim", VCPUs: -2}}}); err == nil {
		t.Fatal("negative VCPUs accepted")
	}
	both := ioSetup("tcp", true, offConfig(), quick)
	both.VMs[0].Serve = &ServeSpec{RatePerSec: 1000}
	if _, err := Run(both); err == nil || !strings.Contains(err.Error(), "one NIC") {
		t.Fatalf("stream next to a serving workload: %v", err)
	}
}

// TestRunAllSettledIsolatesPoisonedJob is the regression test: one bad job
// in a grid yields an error result while every sibling completes.
func TestRunAllSettledIsolatesPoisonedJob(t *testing.T) {
	good := Setup{
		VMs:      []VMSpec{{Name: "ok", App: "swaptions", VCPUs: 2, Seed: 1}},
		PCPUs:    2,
		Core:     offConfig(),
		Duration: 50 * simtime.Millisecond,
	}
	bad := good
	bad.VMs = []VMSpec{{Name: "poison", App: "no-such-app", VCPUs: 2, Seed: 1}}
	settled := RunAllSettled([]Setup{good, bad, good, bad, good})
	for i, want := range []bool{true, false, true, false, true} {
		jr := settled[i]
		if want && (jr.Err != nil || jr.Result == nil) {
			t.Fatalf("job %d failed alongside the poisoned job: %v", i, jr.Err)
		}
		if !want {
			if jr.Err == nil || jr.Result != nil {
				t.Fatalf("job %d: poisoned job did not settle as an error", i)
			}
			if !strings.Contains(jr.Err.Error(), "no-such-app") {
				t.Fatalf("job %d: unexpected error %v", i, jr.Err)
			}
		}
	}
}
