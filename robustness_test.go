package microsliced

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"github.com/microslicedcore/microsliced/internal/rng"
)

// TestRandomScenariosSurviveAudit is the property test: any randomly drawn
// *valid* scenario simulates without error and with a clean invariant audit.
func TestRandomScenariosSurviveAudit(t *testing.T) {
	apps := Workloads()
	r := rng.New(0xbadc0de)
	for i := 0; i < 8; i++ {
		pcpus := 2 + int(r.Int63n(3)) // 2..4
		s := Scenario{
			PCPUs:   pcpus,
			Seconds: 0.05,
			Audit:   true,
		}
		nvm := 1 + int(r.Int63n(2))
		for v := 0; v < nvm; v++ {
			app := apps[r.Int63n(int64(len(apps)))]
			s.VMs = append(s.VMs, VM{
				Name:  fmt.Sprintf("vm%d", v),
				App:   app,
				VCPUs: 2 + int(r.Int63n(3)),
				Seed:  uint64(r.Int63n(1 << 30)),
				Disk:  true, // harmless for non-disk apps, required by fileserver
			})
		}
		switch r.Int63n(3) {
		case 0:
			s.Mode = Off
		case 1:
			s.Mode = Static
			s.StaticCores = 1 + int(r.Int63n(int64(pcpus)))
		case 2:
			s.Mode = Dynamic
		}
		if r.Bool(0.5) {
			s.Faults = &FaultPlan{
				Seed:          uint64(i + 1),
				OfflinePCPUs:  int(r.Int63n(int64(pcpus))), // < pcpus, keeps one online
				IPIDelayProb:  0.2,
				IPIDelayMaxUs: 100,
				IPIDropProb:   0.1,
				TickJitterUs:  500,
			}
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("scenario %d: generator produced an invalid scenario: %v", i, err)
		}
		res, err := Simulate(s)
		if err != nil {
			t.Fatalf("scenario %d (%+v): %v", i, s, err)
		}
		if len(res.InvariantViolations) != 0 {
			t.Fatalf("scenario %d: %d invariant violations, first: %s",
				i, len(res.InvariantViolations), res.InvariantViolations[0])
		}
	}
}

// TestValidateTypedErrors checks every rejection is a *ScenarioError naming
// the offending field.
func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		name  string
		s     Scenario
		field string
	}{
		{"no-vms", Scenario{}, "VMs"},
		{"negative-pcpus", Scenario{PCPUs: -1, VMs: []VM{{App: "exim"}}}, "PCPUs"},
		{"negative-seconds", Scenario{Seconds: -1, VMs: []VM{{App: "exim"}}}, "Seconds"},
		{"negative-vcpus", Scenario{VMs: []VM{{App: "exim", VCPUs: -3}}}, "VMs[0].VCPUs"},
		{"negative-weight", Scenario{VMs: []VM{{App: "exim"}, {App: "swaptions", Weight: -1}}}, "VMs[1].Weight"},
		{"unknown-app", Scenario{VMs: []VM{{App: "no-such-app"}}}, "VMs[0].App"},
		{"unknown-mode", Scenario{Mode: "turbo", VMs: []VM{{App: "exim"}}}, "Mode"},
		{"negative-static", Scenario{Mode: Static, StaticCores: -1, VMs: []VM{{App: "exim"}}}, "StaticCores"},
		{"static-over-host", Scenario{PCPUs: 4, Mode: Static, StaticCores: 5, VMs: []VM{{App: "exim"}}}, "StaticCores"},
		{"unknown-rival", Scenario{Rival: "zen5", VMs: []VM{{App: "exim"}}}, "Rival"},
		{"rival-with-mode", Scenario{Rival: "vturbo", Mode: Dynamic, VMs: []VM{{App: "exim"}}}, "Rival"},
		{"bad-fault-prob", Scenario{VMs: []VM{{App: "exim"}},
			Faults: &FaultPlan{IPIDropProb: 2}}, "Faults"},
		{"fault-unplugs-host", Scenario{PCPUs: 2, VMs: []VM{{App: "exim"}},
			Faults: &FaultPlan{OfflinePCPUs: 2}}, "Faults.OfflinePCPUs"},
		{"unknown-stream", Scenario{VMs: []VM{{App: "exim"}, {Stream: "sctp"}}}, "VMs[1].Stream"},
		{"stream-with-serve", Scenario{VMs: []VM{{App: "exim", Stream: "udp",
			Serve: &ServeConfig{RatePerSec: 1000}}}}, "VMs[0].Stream"},
		{"no-app-no-stream", Scenario{VMs: []VM{{Name: "empty"}}}, "VMs[0].App"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.s.Validate()
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			var se *ScenarioError
			if !errors.As(err, &se) {
				t.Fatalf("error is %T, want *ScenarioError: %v", err, err)
			}
			if se.Field != c.field {
				t.Fatalf("blamed field %q, want %q (%v)", se.Field, c.field, err)
			}
			// Simulate must refuse the same scenario up front.
			if _, serr := Simulate(c.s); serr == nil {
				t.Fatal("Simulate ran an invalid scenario")
			}
		})
	}
	for _, ok := range []Scenario{
		{VMs: []VM{{App: "exim"}}, Mode: Static, StaticCores: 2},
		{VMs: []VM{{Name: "iperf", Stream: "tcp"}}},
	} {
		if err := ok.Validate(); err != nil {
			t.Fatalf("valid scenario rejected: %v", err)
		}
	}
}

// TestValidateRejectsNonFinite: a float field that is NaN or infinite, or
// a duration the simulated clock cannot hold, is a *ScenarioError naming
// the field. Before, NaN seconds ran the default duration, +Inf seconds
// and SLOs failed inside the run with untyped errors, recovery periods
// fell back to their defaults, and NaN fault parameters were accepted.
func TestValidateRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	vms := func() []VM { return []VM{{App: "exim", Serve: &ServeConfig{RatePerSec: 1000}}} }
	cases := []struct {
		name  string
		edit  func(*Scenario)
		field string
	}{
		{"seconds-nan", func(s *Scenario) { s.Seconds = nan }, "Seconds"},
		{"seconds-inf", func(s *Scenario) { s.Seconds = inf }, "Seconds"},
		{"seconds-overflow", func(s *Scenario) { s.Seconds = 1e300 }, "Seconds"},
		{"slo-nan", func(s *Scenario) { s.VMs[0].Serve.SLOMs = nan }, "VMs[0].Serve.SLOMs"},
		{"slo-inf", func(s *Scenario) { s.VMs[0].Serve.SLOMs = inf }, "VMs[0].Serve.SLOMs"},
		{"slo-overflow", func(s *Scenario) { s.VMs[0].Serve.SLOMs = 1e300 }, "VMs[0].Serve.SLOMs"},
		{"interval-nan", func(s *Scenario) { s.Recovery = &RecoveryPlan{IntervalMs: nan} }, "Recovery.IntervalMs"},
		{"interval-inf", func(s *Scenario) { s.Recovery = &RecoveryPlan{IntervalMs: inf} }, "Recovery.IntervalMs"},
		{"starve-nan", func(s *Scenario) { s.Recovery = &RecoveryPlan{StarveBoundMs: nan} }, "Recovery.StarveBoundMs"},
		{"starve-inf", func(s *Scenario) { s.Recovery = &RecoveryPlan{StarveBoundMs: inf} }, "Recovery.StarveBoundMs"},
		{"drop-nan", func(s *Scenario) { s.Faults = &FaultPlan{IPIDropProb: nan} }, "Faults.IPIDropProb"},
		{"stall-factor-nan", func(s *Scenario) { s.Faults = &FaultPlan{LockStallProb: 0.1, LockStallFactor: nan} }, "Faults.LockStallFactor"},
		{"jitter-inf", func(s *Scenario) { s.Faults = &FaultPlan{TickJitterUs: inf} }, "Faults.TickJitterUs"},
		{"quiesce-overflow", func(s *Scenario) { s.Faults = &FaultPlan{IPIDropProb: 0.1, QuiesceAtMs: 1e300} }, "Faults.QuiesceAtMs"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := Scenario{VMs: vms()}
			c.edit(&s)
			err := s.Validate()
			var se *ScenarioError
			if !errors.As(err, &se) {
				t.Fatalf("Validate returned %v, want a *ScenarioError", err)
			}
			if se.Field != c.field {
				t.Fatalf("blamed field %q, want %q (%v)", se.Field, c.field, err)
			}
		})
	}
}

// FuzzScenarioValidate: Validate must never panic, and every rejection must
// be a typed *ScenarioError.
func FuzzScenarioValidate(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	f.Add(12, 12, "exim", "static", 2, "", 3.0, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0)
	f.Add(-1, -1, "", "off", -1, "vturbo", -1.0, uint64(0), -1, 2.0, -1.0, 0.5, 1e9, 0.5, 0.0, -1.0, -1.0, -1.0)
	f.Add(2, 0, "dedup", "dynamic", 99, "zen5", 0.0, uint64(7), 5, 0.3, 200.0, 0.2, 500.0, 0.1, 8.0, 2.0, 10.0, 50.0)
	f.Add(0, 3, "no-such-app", "", 0, "cosched", nan, uint64(3), 1, inf, nan, -0.0, -500.0, 1.0, 0.5, 0.0, 0.0, 0.0)
	// TestValidateRejectsNonFinite's cases, on an otherwise valid scenario.
	f.Add(12, 12, "exim", "off", 0, "", nan, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0)
	f.Add(12, 12, "exim", "off", 0, "", inf, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0)
	f.Add(12, 12, "exim", "off", 0, "", 1e300, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0)
	f.Add(12, 12, "exim", "off", 0, "", 1.0, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, nan, 0.0, 0.0)
	f.Add(12, 12, "exim", "off", 0, "", 1.0, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, inf, 0.0, 0.0)
	f.Add(12, 12, "exim", "off", 0, "", 1.0, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, nan, inf)
	f.Add(12, 12, "exim", "off", 0, "", 1.0, uint64(1), 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 5.0, inf, nan)
	f.Add(12, 12, "exim", "off", 0, "", 1.0, uint64(1), 0, nan, 0.0, 0.0, 0.0, 0.1, nan, 5.0, 0.0, 0.0)
	f.Fuzz(func(t *testing.T, pcpus, vcpus int, app, mode string, static int,
		rival string, seconds float64, seed uint64, offline int,
		dropProb, delayUs, delayProb, jitterUs, stallProb, stallFactor,
		sloMs, intervalMs, starveMs float64) {
		s := Scenario{
			PCPUs: pcpus,
			VMs: []VM{{App: app, VCPUs: vcpus, Seed: seed,
				Serve: &ServeConfig{RatePerSec: 1000, SLOMs: sloMs}}},
			Mode:        Mode(mode),
			StaticCores: static,
			Rival:       rival,
			Seconds:     seconds,
			Faults: &FaultPlan{
				Seed:            seed,
				OfflinePCPUs:    offline,
				IPIDropProb:     dropProb,
				IPIDelayProb:    delayProb,
				IPIDelayMaxUs:   delayUs,
				TickJitterUs:    jitterUs,
				LockStallProb:   stallProb,
				LockStallFactor: stallFactor,
			},
			Recovery: &RecoveryPlan{IntervalMs: intervalMs, StarveBoundMs: starveMs},
		}
		err := s.Validate()
		if err == nil {
			for _, v := range []float64{seconds, dropProb, delayUs, delayProb, jitterUs, stallProb, stallFactor, sloMs, intervalMs, starveMs} {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("Validate accepted a non-finite field: %+v", s)
				}
			}
			return
		}
		var se *ScenarioError
		if !errors.As(err, &se) {
			t.Fatalf("Validate returned %T, want *ScenarioError: %v", err, err)
		}
		if se.Field == "" || se.Reason == "" {
			t.Fatalf("ScenarioError missing field/reason: %+v", se)
		}
	})
}
