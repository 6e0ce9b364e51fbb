package experiment

import (
	"bytes"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Short simulated durations keep the suite fast while preserving shapes.
const (
	quick = 500 * simtime.Millisecond
	med   = simtime.Second
)

func TestRunBasicScenario(t *testing.T) {
	res, err := Run(corunSetup("gmake", offConfig(), quick))
	if err != nil {
		t.Fatal(err)
	}
	if res.VM("gmake") == nil || res.VM("swaptions") == nil {
		t.Fatal("missing VM results")
	}
	if res.VM("gmake").Units == 0 || res.VM("swaptions").Units == 0 {
		t.Fatal("no progress recorded")
	}
	if res.VM("nope") != nil {
		t.Fatal("unknown VM should be nil")
	}
	if res.VM("gmake").RanTotal == 0 {
		t.Fatal("no CPU accounting")
	}
}

func TestRunUnknownAppFails(t *testing.T) {
	s := soloSetup("gmake", quick)
	s.VMs[0].App = "nope"
	if _, err := Run(s); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() uint64 {
		res, err := Run(corunSetup("exim", offConfig(), quick))
		if err != nil {
			t.Fatal(err)
		}
		return res.VM("exim").Units
	}
	if run() != run() {
		t.Fatal("scenario is not deterministic")
	}
}

func TestTable2ShapeCoRunExplodesYields(t *testing.T) {
	r, err := Table2(med)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.CoRun < 3*row.Solo {
			t.Errorf("%s: co-run yields %d not >> solo %d", row.Workload, row.CoRun, row.Solo)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Table 2") {
		t.Fatal("render missing title")
	}
}

func TestTable3ListsWhitelistWithHits(t *testing.T) {
	r, err := Table3(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 30 {
		t.Fatalf("whitelist rows=%d", len(r.Rows))
	}
	var hits uint64
	for _, row := range r.Rows {
		hits += row.Hits
	}
	if hits == 0 {
		t.Fatal("no critical symbols observed at runtime")
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "native_flush_tlb_others()") {
		t.Fatal("render missing whitelist entries")
	}
}

func TestTable4aShapeLockWaitsBlowUp(t *testing.T) {
	r, err := Table4a(med)
	if err != nil {
		t.Fatal(err)
	}
	blown := 0
	for _, row := range r.Rows {
		if row.SoloUs <= 0 {
			t.Errorf("%s: no solo contention measured", row.Component)
		}
		if row.CoRunUs > 20*row.SoloUs {
			blown++
		}
	}
	// The paper shows orders-of-magnitude blowups on all four classes;
	// require at least three at this short duration.
	if blown < 3 {
		t.Fatalf("only %d lock classes blew up in co-run: %+v", blown, r.Rows)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "Dentry") {
		t.Fatal("render missing classes")
	}
}

func TestTable4bShapeTLBLatencyBlowsUp(t *testing.T) {
	r, err := Table4b(med)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows=%d", len(r.Rows))
	}
	get := func(app, cfg string) Table4bRow {
		for _, row := range r.Rows {
			if row.Workload == app && row.Config == cfg {
				return row
			}
		}
		t.Fatalf("row %s/%s missing", app, cfg)
		return Table4bRow{}
	}
	for _, app := range []string{"dedup", "vips"} {
		solo, co := get(app, "solo"), get(app, "co-run")
		if solo.AvgUs > 100 {
			t.Errorf("%s solo avg %.1fus too high", app, solo.AvgUs)
		}
		if co.AvgUs < 50*solo.AvgUs {
			t.Errorf("%s co-run avg %.1fus did not blow up vs solo %.1fus", app, co.AvgUs, solo.AvgUs)
		}
		if co.MaxUs < 1000 {
			t.Errorf("%s co-run max %.1fus lacks the multi-ms tail", app, co.MaxUs)
		}
	}
}

func TestTable4cShapeMixedIOSuffers(t *testing.T) {
	r, err := Table4c(med)
	if err != nil {
		t.Fatal(err)
	}
	if r.Solo.JitterMs > 0.1 || r.Solo.Loss > 0.01 {
		t.Fatalf("solo iperf unhealthy: %+v", r.Solo)
	}
	if r.Mixed.JitterMs < 0.5 {
		t.Fatalf("mixed jitter %.4fms, want ms-scale", r.Mixed.JitterMs)
	}
	if r.Mixed.Mbps > 0.85*r.Solo.Mbps {
		t.Fatalf("mixed throughput %.1f vs solo %.1f — no degradation", r.Mixed.Mbps, r.Solo.Mbps)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "mixed co-run") {
		t.Fatal("render incomplete")
	}
}

func TestSweepShapeGmake(t *testing.T) {
	sweeps, err := sweepAll([]string{"gmake"}, 2, med)
	if err != nil {
		t.Fatal(err)
	}
	s := sweeps[0]
	if s.NormExecTime(1) >= 0.9 {
		t.Fatalf("one micro core did not accelerate gmake: %.2f", s.NormExecTime(1))
	}
	if s.CoNormExecTime(1) > 1.3 {
		t.Fatalf("swaptions cost too high: %.2f", s.CoNormExecTime(1))
	}
	if s.BestStatic() < 1 || s.BestStatic() > 2 {
		t.Fatalf("best static %d", s.BestStatic())
	}
	if s.ThroughputGain(1) <= 1 {
		t.Fatal("gain inconsistent with exec time")
	}
}

func TestFigure9ShapeMicroSlicedRescuesIO(t *testing.T) {
	r, err := Figure9(med)
	if err != nil {
		t.Fatal(err)
	}
	if r.MicroUDP.JitterMs > r.BaselineUDP.JitterMs/2 {
		t.Fatalf("jitter not fixed: %.4f -> %.4f", r.BaselineUDP.JitterMs, r.MicroUDP.JitterMs)
	}
	if r.MicroTCP.Mbps < r.BaselineTCP.Mbps*1.2 {
		t.Fatalf("TCP bandwidth not improved: %.1f -> %.1f", r.BaselineTCP.Mbps, r.MicroTCP.Mbps)
	}
	if r.MicroUDP.Loss > r.BaselineUDP.Loss/2 {
		t.Fatalf("UDP loss not fixed: %.3f -> %.3f", r.BaselineUDP.Loss, r.MicroUDP.Loss)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "u-sliced") {
		t.Fatal("render incomplete")
	}
}

func TestFigure8ShapeNoOverhead(t *testing.T) {
	base, err := Run(corunSetup("blackscholes", offConfig(), med))
	if err != nil {
		t.Fatal(err)
	}
	dyn, err := Run(corunSetup("blackscholes", core.DefaultConfig(), med))
	if err != nil {
		t.Fatal(err)
	}
	norm := float64(base.VM("blackscholes").Units) / float64(dyn.VM("blackscholes").Units)
	if norm > 1.06 {
		t.Fatalf("dynamic mechanism costs %.1f%% on a user-level workload", (norm-1)*100)
	}
}

// TestRunIORejectsUnknownProto: an iPerf stream with a protocol other than
// udp or tcp is rejected by Run before anything is built.
func TestRunIORejectsUnknownProto(t *testing.T) {
	sctp := ioSetup("udp", false, offConfig(), quick)
	sctp.VMs[0].Stream = "sctp"
	if _, err := Run(sctp); err == nil || !strings.Contains(err.Error(), "sctp") {
		t.Fatalf("unknown proto accepted: %v", err)
	}
}

func TestRendersProduceOutput(t *testing.T) {
	// Smoke-render every result type with tiny runs.
	var buf bytes.Buffer
	if r, err := Table2(quick); err != nil {
		t.Fatal(err)
	} else {
		r.Render(&buf)
	}
	f6 := &Figure6Result{Rows: []Figure6Row{{Workload: "x", StaticCores: 1, StaticGain: 2, DynamicGain: 1.9}}}
	f6.Render(&buf)
	f7 := &Figure7Result{Rows: []Figure7Row{{Workload: "x", Config: "B", Yields: YieldBreakdown{IPI: 1}}}}
	f7.Render(&buf)
	f8 := &Figure8Result{Rows: []Figure8Row{{Workload: "x", NormExecTime: 1.0}}}
	f8.Render(&buf)
	f4 := &Figure4Result{Sweeps: []*SweepResult{{Workload: "x", Points: []SweepPoint{{0, 100, 100}, {1, 120, 98}}}}}
	f4.Render(&buf)
	f5 := &Figure5Result{Sweeps: f4.Sweeps}
	f5.Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestYieldBreakdownTotal(t *testing.T) {
	y := YieldBreakdown{IPI: 1, PLE: 2, Halt: 3, Other: 4}
	if y.Total() != 10 {
		t.Fatalf("total=%d", y.Total())
	}
}

func TestTable1ShapeRivals(t *testing.T) {
	r, err := Table1(med)
	if err != nil {
		t.Fatal(err)
	}
	get := func(name string) Table1Row {
		for _, row := range r.Rows {
			if row.System == name {
				return row
			}
		}
		t.Fatalf("system %s missing", name)
		return Table1Row{}
	}
	vturbo, static := get("vturbo"), get("usliced-static")
	fixed, vtrs := get("fixed-usliced"), get("vtrs")
	// vTurbo helps I/O but not locks (paper Table 1 row semantics).
	if vturbo.MixedIOGain < 1.2 {
		t.Errorf("vturbo I/O gain %.2f", vturbo.MixedIOGain)
	}
	if vturbo.LockGain > 1.6 {
		// (Some run-to-run variation: reserving the turbo core perturbs
		// scheduling; the mechanism itself never touches locks.)
		t.Errorf("vturbo lock gain %.2f — it should not address locks", vturbo.LockGain)
	}
	// The paper's mechanism beats vturbo on locks and at least matches on I/O.
	if static.LockGain < vturbo.LockGain+0.5 {
		t.Errorf("usliced lock gain %.2f vs vturbo %.2f", static.LockGain, vturbo.LockGain)
	}
	if static.MixedIOGain < 1.2 {
		t.Errorf("usliced I/O gain %.2f", static.MixedIOGain)
	}
	// Global short slicing taxes the co-runner more than precise selection.
	if fixed.CoRunnerCost < static.CoRunnerCost {
		t.Errorf("fixed-usliced co-runner cost %.2f below usliced %.2f",
			fixed.CoRunnerCost, static.CoRunnerCost)
	}
	// All rivals help at least one symptom (they were published, after all).
	for _, row := range []Table1Row{fixed, vtrs} {
		if row.LockGain < 1.1 && row.TLBGain < 1.1 && row.MixedIOGain < 1.1 {
			t.Errorf("%s helped nothing: %+v", row.System, row)
		}
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "vturbo") {
		t.Fatal("render incomplete")
	}
}

func TestExtensionUserCSShape(t *testing.T) {
	r, err := ExtensionUserCS(med)
	if err != nil {
		t.Fatal(err)
	}
	if r.UserDetections == 0 {
		t.Fatal("no user-region detections")
	}
	if r.WithUserCSGain <= r.KernelOnlyGain {
		t.Fatalf("user-region registration did not add gain: kernel-only %.2f, with user CS %.2f",
			r.KernelOnlyGain, r.WithUserCSGain)
	}
	var buf bytes.Buffer
	r.Render(&buf)
	if !strings.Contains(buf.String(), "user regions") {
		t.Fatal("render incomplete")
	}
}
