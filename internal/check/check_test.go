package check

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// envInt reads an integer environment override (the CI long-run job scales
// the suite up without a code change).
func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

func envUint(name string, def uint64) uint64 {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.ParseUint(s, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// TestConformanceSuite is the harness's main entry point: 200 generated
// scenarios (CHECK_COUNT/CHECK_SEED override; the scheduled CI job runs 10×
// with rotating seeds), each checked against every metamorphic relation and
// conservation law. Failures are shrunk and dumped under CHECK_FIXTURE_DIR
// when set.
func TestConformanceSuite(t *testing.T) {
	opt := Options{
		Seed:       envUint("CHECK_SEED", 1),
		Count:      envInt("CHECK_COUNT", 200),
		FixtureDir: os.Getenv("CHECK_FIXTURE_DIR"),
	}
	if testing.Verbose() {
		opt.Progress = os.Stderr
	}
	rep, err := RunSuite(opt)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if rep.Checked < opt.Count && len(rep.Failures) == 0 {
		t.Fatalf("suite stopped early: %d/%d scenarios", rep.Checked, opt.Count)
	}
	for i, f := range rep.Failures {
		where := ""
		if i < len(rep.FixturePaths) && rep.FixturePaths[i] != "" {
			where = " (fixture: " + rep.FixturePaths[i] + ")"
		}
		t.Errorf("seed %d: %s%s\nshrunk repro: %+v", f.Seed, f.Err, where, f.Shrunk)
	}
}

// TestInjectedBugCaughtAndShrunk proves the harness has teeth: a mutation
// that corrupts one hypervisor counter whenever a run has at least two VMs
// must be detected by the relation comparison and shrunk to a repro of at
// most two domains.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	c := &Checker{mutate: func(r *experiment.Result) {
		if len(r.VMs) >= 2 {
			r.HV["yield.total"]++
		}
	}}
	var sc Scenario
	found := false
	for seed := uint64(1); seed < 64 && !found; seed++ {
		if s := Generate(seed); len(s.VMs) >= 2 {
			// Keep the hunt cheap: the shrinker, not the generator, is
			// under test, so any multi-VM scenario will do.
			sc, found = s, true
		}
	}
	if !found {
		t.Fatal("generator produced no multi-VM scenario in 64 seeds")
	}
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected accounting bug was not caught")
	}
	if !strings.Contains(err.Error(), "yield.total") {
		t.Fatalf("diff does not name the corrupted counter: %v", err)
	}
	fails := func(s Scenario) bool { return c.Check(s) != nil }
	shrunk := Shrink(sc, fails, 80)
	if len(shrunk.VMs) > 2 {
		t.Fatalf("shrunk repro still has %d domains, want <= 2", len(shrunk.VMs))
	}
	if !fails(shrunk) {
		t.Fatal("shrunk scenario no longer reproduces the failure")
	}
}

// TestInjectedStageSkewCaughtAndShrunk proves the stage conservation law has
// teeth: a PostCheck that deliberately mis-attributes one microsecond of
// wake_dispatch time to a stage — without touching the span ledger — must be
// caught by the Σ stages == span total law and shrunk like any other bug.
func TestInjectedStageSkewCaughtAndShrunk(t *testing.T) {
	c := &Checker{post: func(pr *experiment.PostRun) error {
		if pr.Obs != nil {
			pr.Obs.SkewStageLedger(obs.SpanWakeDispatch, obs.WakeStageRunq, simtime.Microsecond)
		}
		return Conservation(pr)
	}}
	sc := Generate(1)
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected stage mis-attribution was not caught")
	}
	if !strings.Contains(err.Error(), "stage ledger") || !strings.Contains(err.Error(), "wake_dispatch") {
		t.Fatalf("error does not name the skewed stage ledger: %v", err)
	}
	fails := func(s Scenario) bool { return c.Check(s) != nil }
	shrunk := Shrink(sc, fails, 80)
	if len(shrunk.VMs) > 2 {
		t.Fatalf("shrunk repro still has %d domains, want <= 2", len(shrunk.VMs))
	}
	if !fails(shrunk) {
		t.Fatal("shrunk scenario no longer reproduces the failure")
	}
}

// TestInjectedDecisionSkewCaughtAndShrunk proves the controller audit law
// has teeth: skewing one entry of the baseline decision log — without
// touching any counter — must be caught by the bit-identical decision-log
// comparison across the metamorphic relations and shrunk to a repro of at
// most two domains.
func TestInjectedDecisionSkewCaughtAndShrunk(t *testing.T) {
	c := &Checker{mutate: func(r *experiment.Result) {
		if len(r.Decisions) > 0 {
			r.Decisions[len(r.Decisions)-1].Chosen++
		}
	}}
	var sc Scenario
	found := false
	for seed := uint64(1); seed < 128 && !found; seed++ {
		if s := Generate(seed); s.Mode == "dynamic" {
			// Any dynamic scenario whose baseline run records at least one
			// decision will do — the mutation is a no-op otherwise.
			if c.Check(s) != nil {
				sc, found = s, true
			}
		}
	}
	if !found {
		t.Fatal("no dynamic scenario with a non-empty decision log in 128 seeds")
	}
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected decision skew was not caught")
	}
	if !strings.Contains(err.Error(), "decision") {
		t.Fatalf("error does not name the decision log: %v", err)
	}
	fails := func(s Scenario) bool { return c.Check(s) != nil }
	shrunk := Shrink(sc, fails, 80)
	if len(shrunk.VMs) > 2 {
		t.Fatalf("shrunk repro still has %d domains, want <= 2", len(shrunk.VMs))
	}
	if !fails(shrunk) {
		t.Fatal("shrunk scenario no longer reproduces the failure")
	}
}

// TestInjectedRequestLeakCaught proves the request conservation law has
// teeth: silently "losing" one request between the softirq and the socket
// (Delivered bumped without a matching consume) must break the pipeline
// ledger equalities.
func TestInjectedRequestLeakCaught(t *testing.T) {
	c := &Checker{post: func(pr *experiment.PostRun) error {
		for i := range pr.Result.VMs {
			if rq := pr.Result.VMs[i].Requests; rq != nil {
				rq.Delivered++
				break
			}
		}
		return Conservation(pr)
	}}
	var sc Scenario
	found := false
	for seed := uint64(1); seed < 128 && !found; seed++ {
		s := Generate(seed)
		for _, vm := range s.VMs {
			if vm.Serve != nil {
				sc, found = s, true
				break
			}
		}
	}
	if !found {
		t.Fatal("generator produced no serving scenario in 128 seeds")
	}
	err := c.Check(sc)
	if err == nil {
		t.Fatal("injected request leak was not caught")
	}
	if !strings.Contains(err.Error(), "requests") {
		t.Fatalf("error does not name the request ledger: %v", err)
	}
}

// TestGenerateDeterministic: the same seed always yields the same scenario
// (fixtures would be worthless otherwise).
func TestGenerateDeterministic(t *testing.T) {
	for seed := uint64(0); seed < 32; seed++ {
		a, b := Generate(seed), Generate(seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: %+v != %+v", seed, a, b)
		}
	}
}

// TestGenerateProducesValidSetups: every generated scenario must pass the
// harness's own validation (no pin out of range, valid apps, sound config).
func TestGenerateProducesValidSetups(t *testing.T) {
	for seed := uint64(100); seed < 140; seed++ {
		sc := Generate(seed)
		s, err := sc.ToSetup()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(s.VMs) == 0 {
			t.Fatalf("seed %d: no VMs", seed)
		}
		if err := s.HVConfig.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, vm := range s.VMs {
			for _, pin := range vm.Pins {
				if pin >= s.PCPUs {
					t.Fatalf("seed %d: pin %d on %d pCPUs", seed, pin, s.PCPUs)
				}
			}
		}
	}
}

// TestFixtureRoundTrip: a fixture survives the write/load cycle intact and
// its scenario replays. The inputs cover a plain generated scenario, a
// recovery scenario (the embedded recovery.Spec and DeadlineMs) and a
// generated scenario with faults and a serving VM (fault.Spec's float
// fields and experiment.ServeSpec).
func TestFixtureRoundTrip(t *testing.T) {
	var faultServe Scenario
	serving := func(vm experiment.VMSpec) bool { return vm.Serve != nil }
	for seed := uint64(1); seed < 256 && faultServe.Faults == nil; seed++ {
		if sc := Generate(seed); sc.Faults != nil && slices.ContainsFunc(sc.VMs, serving) {
			faultServe = sc
		}
	}
	if faultServe.Faults == nil {
		t.Fatal("generator produced no scenario with faults and a serving VM in 255 seeds")
	}
	for _, f := range []*Fixture{
		{Seed: 42, Err: "relation \"domain-relabel\" violated: hv counters differ", Original: Generate(42), Shrunk: Generate(7)},
		{Seed: 50, Err: "recovery: MTTR exceeds convergence deadline", Original: GenerateRecovery(50), Shrunk: GenerateRecovery(50)},
		{Seed: faultServe.Seed, Err: "conservation: requests", Original: faultServe, Shrunk: faultServe},
	} {
		dir := t.TempDir()
		path, err := WriteFixture(dir, f)
		if err != nil {
			t.Fatal(err)
		}
		if filepath.Dir(path) != dir {
			t.Fatalf("fixture written to %s, want under %s", path, dir)
		}
		loaded, err := LoadFixture(path)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(f, loaded) {
			t.Fatalf("seed %d: round trip changed the fixture:\n%+v\n%+v", f.Seed, f, loaded)
		}
		if err := ReplayFixture(loaded); err != nil {
			t.Fatalf("seed %d: healthy fixture scenario fails on replay: %v", f.Seed, err)
		}
	}
}

// TestUnknownModeRejected: a scenario whose mode the shared parser does not
// know (here a capitalised "Dynamic") fails Check, CheckRecovery and
// ReplayFixture with an error instead of replaying as the Baseline.
func TestUnknownModeRejected(t *testing.T) {
	sc := Generate(7)
	sc.Mode = "Dynamic"
	rsc := GenerateRecovery(50)
	rsc.Mode = "Dynamic"
	var c Checker
	for name, err := range map[string]error{
		"Check":                  c.Check(sc),
		"CheckRecovery":          c.CheckRecovery(rsc),
		"ReplayFixture":          ReplayFixture(&Fixture{Seed: 7, Shrunk: sc}),
		"ReplayFixture/recovery": ReplayFixture(&Fixture{Seed: 50, Shrunk: rsc}),
	} {
		if err == nil || !strings.Contains(err.Error(), `unknown mode "Dynamic"`) {
			t.Errorf("%s: got %v, want an unknown-mode error", name, err)
		}
	}
}
