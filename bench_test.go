package microsliced

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation studies of DESIGN.md §5. Each benchmark iteration runs complete
// simulated scenarios (hundreds of simulated milliseconds each) and reports
// the reproduced headline statistic through b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates the paper's result shapes alongside the usual ns/op numbers.
// The full-length reproduction with rendered tables is cmd/paperbench.

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// benchDur keeps each scenario short; shapes remain stable at this length.
const benchDur = simtime.Second

func off() core.Config {
	c := core.DefaultConfig()
	c.Mode = core.ModeOff
	return c
}

func corun(app string, cc core.Config) experiment.Setup {
	return experiment.Setup{
		VMs: []experiment.VMSpec{
			{Name: app, App: app, Seed: 11},
			{Name: "swaptions", App: "swaptions", Seed: 22},
		},
		Core:         cc,
		Duration:     benchDur,
		StaggerStart: true,
	}
}

func mustRun(b *testing.B, s experiment.Setup) *experiment.Result {
	b.Helper()
	res, err := experiment.Run(s)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTable2_Yields reproduces Table 2: the co-run yield explosion.
func BenchmarkTable2_Yields(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		solo := mustRun(b, experiment.Setup{
			VMs:      []experiment.VMSpec{{Name: "gmake", App: "gmake", Seed: 11}},
			Core:     off(),
			Duration: benchDur,
		})
		co := mustRun(b, corun("gmake", off()))
		ratio = float64(co.VM("gmake").Yields.Total()) / float64(1+solo.VM("gmake").Yields.Total())
	}
	b.ReportMetric(ratio, "corun/solo-yields")
}

// BenchmarkTable3_CriticalSymbols reproduces Table 3: runtime detection of
// the critical-component whitelist.
func BenchmarkTable3_CriticalSymbols(b *testing.B) {
	var symbols float64
	for i := 0; i < b.N; i++ {
		res := mustRun(b, corun("gmake", core.StaticConfig(1)))
		symbols = float64(len(res.SymbolHits))
	}
	b.ReportMetric(symbols, "distinct-critical-symbols")
}

// BenchmarkTable4a_SpinlockWait reproduces Table 4a: gmake's contended
// spinlock wait blowup under co-run.
func BenchmarkTable4a_SpinlockWait(b *testing.B) {
	var worst float64
	for i := 0; i < b.N; i++ {
		co := mustRun(b, corun("gmake", off()))
		worst = 0
		for _, h := range co.VM("gmake").LockStat {
			if m := h.Mean() / 1000; m > worst {
				worst = m
			}
		}
	}
	b.ReportMetric(worst, "worst-class-wait-us")
}

// BenchmarkTable4b_TLBSync reproduces Table 4b: dedup's TLB
// synchronization latency under co-run.
func BenchmarkTable4b_TLBSync(b *testing.B) {
	var avg float64
	for i := 0; i < b.N; i++ {
		co := mustRun(b, corun("dedup", off()))
		avg = co.VM("dedup").TLB.Mean() / 1000
	}
	b.ReportMetric(avg, "tlb-sync-avg-us")
}

// BenchmarkTable4c_IperfSoloVsMixed reproduces Table 4c: the mixed-vCPU
// iPerf collapse.
func BenchmarkTable4c_IperfSoloVsMixed(b *testing.B) {
	var frac float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.Table4c(benchDur)
		if err != nil {
			b.Fatal(err)
		}
		frac = r.Mixed.Mbps / r.Solo.Mbps
	}
	b.ReportMetric(frac, "mixed/solo-throughput")
}

// BenchmarkFigure4_MicroCoreSweep reproduces Figure 4 for each
// execution-time workload: normalized execution time at its best static
// micro pool.
func BenchmarkFigure4_MicroCoreSweep(b *testing.B) {
	for _, wl := range []struct {
		app   string
		cores int
	}{{"gmake", 1}, {"memclone", 1}, {"dedup", 3}, {"vips", 3}} {
		wl := wl
		b.Run(wl.app, func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				base := mustRun(b, corun(wl.app, off()))
				acc := mustRun(b, corun(wl.app, core.StaticConfig(wl.cores)))
				norm = float64(base.VM(wl.app).Units) / float64(acc.VM(wl.app).Units)
			}
			b.ReportMetric(norm, "norm-exec-time")
		})
	}
}

// BenchmarkFigure5_ThroughputSweep reproduces Figure 5: throughput gains
// for exim and psearchy.
func BenchmarkFigure5_ThroughputSweep(b *testing.B) {
	for _, wl := range []struct {
		app   string
		cores int
	}{{"exim", 1}, {"psearchy", 3}} {
		wl := wl
		b.Run(wl.app, func(b *testing.B) {
			var gain float64
			for i := 0; i < b.N; i++ {
				base := mustRun(b, corun(wl.app, off()))
				acc := mustRun(b, corun(wl.app, core.StaticConfig(wl.cores)))
				gain = float64(acc.VM(wl.app).Units) / float64(base.VM(wl.app).Units)
			}
			b.ReportMetric(gain, "throughput-gain")
		})
	}
}

// BenchmarkFigure6_StaticVsDynamic reproduces Figure 6: the adaptive
// controller against the static best (exim).
func BenchmarkFigure6_StaticVsDynamic(b *testing.B) {
	var rel float64
	dur := 3 * benchDur // the adaptive epoch needs room to settle
	for i := 0; i < b.N; i++ {
		st := corun("exim", core.StaticConfig(1))
		st.Duration = dur
		static := mustRun(b, st)
		dn := corun("exim", core.DefaultConfig())
		dn.Duration = dur
		dyn := mustRun(b, dn)
		rel = float64(dyn.VM("exim").Units) / float64(static.VM("exim").Units)
	}
	b.ReportMetric(rel, "dynamic/static-throughput")
}

// BenchmarkFigure7_YieldBreakdown reproduces Figure 7: yield reduction
// under the static mechanism.
func BenchmarkFigure7_YieldBreakdown(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		base := mustRun(b, corun("exim", off()))
		acc := mustRun(b, corun("exim", core.StaticConfig(1)))
		rel = float64(acc.VM("exim").Yields.Total()) / float64(1+base.VM("exim").Yields.Total())
	}
	b.ReportMetric(rel, "yields-vs-baseline")
}

// BenchmarkFigure8_Overhead reproduces Figure 8: the mechanism's overhead
// on user-level workloads.
func BenchmarkFigure8_Overhead(b *testing.B) {
	var norm float64
	for i := 0; i < b.N; i++ {
		base := mustRun(b, corun("blackscholes", off()))
		dyn := mustRun(b, corun("blackscholes", core.DefaultConfig()))
		norm = float64(base.VM("blackscholes").Units) / float64(dyn.VM("blackscholes").Units)
	}
	b.ReportMetric(norm, "norm-exec-time")
}

// BenchmarkFigure9_MixedIO reproduces Figure 9: micro-slicing rescuing the
// mixed-vCPU I/O path.
func BenchmarkFigure9_MixedIO(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		r, err := experiment.Figure9(benchDur)
		if err != nil {
			b.Fatal(err)
		}
		gain = r.MicroTCP.Mbps / r.BaselineTCP.Mbps
	}
	b.ReportMetric(gain, "usliced/baseline-tcp")
}

// ---------------------------------------------------------------------------
// Ablations (DESIGN.md §5)
// ---------------------------------------------------------------------------

// BenchmarkAblation_PreciseSelection (D1): migrating only RIP-classified
// critical vCPUs vs migrating any preempted sibling.
func BenchmarkAblation_PreciseSelection(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		precise := mustRun(b, corun("gmake", core.StaticConfig(1)))
		sloppy := core.StaticConfig(1)
		sloppy.PreciseSelection = false
		imprecise := mustRun(b, corun("gmake", sloppy))
		rel = float64(imprecise.VM("gmake").Units) / float64(precise.VM("gmake").Units)
	}
	b.ReportMetric(rel, "imprecise/precise-throughput")
}

// BenchmarkAblation_MicroSliceLength (D2): the 0.1ms micro quantum against
// a 1ms one.
func BenchmarkAblation_MicroSliceLength(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		short := mustRun(b, corun("dedup", core.StaticConfig(3)))
		long := corun("dedup", core.StaticConfig(3))
		cfg := hv.DefaultConfig()
		cfg.MicroSlice = simtime.Millisecond
		long.HVConfig = &cfg
		longRes := mustRun(b, long)
		rel = float64(longRes.VM("dedup").Units) / float64(short.VM("dedup").Units)
	}
	b.ReportMetric(rel, "1ms/0.1ms-throughput")
}

// BenchmarkAblation_MigrateBack (D3): returning vCPUs home after one micro
// slice vs letting them stay.
func BenchmarkAblation_MigrateBack(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		back := mustRun(b, corun("exim", core.StaticConfig(1)))
		stay := corun("exim", core.StaticConfig(1))
		cfg := hv.DefaultConfig()
		cfg.MicroReturnHome = false
		stay.HVConfig = &cfg
		stayRes := mustRun(b, stay)
		rel = float64(stayRes.VM("exim").Units) / float64(back.VM("exim").Units)
	}
	b.ReportMetric(rel, "stay/migrate-back-throughput")
}

// BenchmarkAblation_RunqueueLimit (D4): the one-vCPU micro runqueue limit
// vs unbounded stacking.
func BenchmarkAblation_RunqueueLimit(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		limited := mustRun(b, corun("dedup", core.StaticConfig(2)))
		stacked := corun("dedup", core.StaticConfig(2))
		cfg := hv.DefaultConfig()
		cfg.MicroRunqLimit = 0
		stacked.HVConfig = &cfg
		stackedRes := mustRun(b, stacked)
		rel = float64(stackedRes.VM("dedup").Units) / float64(limited.VM("dedup").Units)
	}
	b.ReportMetric(rel, "unbounded/limited-throughput")
}

// BenchmarkAblation_GlobalShortSlice (D5): the prior-work alternative of a
// 0.1ms quantum on every core (no migration mechanism), showing the
// context-switch and cache cost the paper's precise selection avoids.
func BenchmarkAblation_GlobalShortSlice(b *testing.B) {
	var rel float64
	for i := 0; i < b.N; i++ {
		microsliced := mustRun(b, corun("gmake", core.StaticConfig(1)))
		global := corun("gmake", off())
		cfg := hv.DefaultConfig()
		cfg.NormalSlice = 100 * simtime.Microsecond
		global.HVConfig = &cfg
		globalRes := mustRun(b, global)
		// Compare the co-runner, which pays the short-slice tax.
		rel = float64(globalRes.VM("swaptions").Units) / float64(microsliced.VM("swaptions").Units)
	}
	b.ReportMetric(rel, "global-short/usliced-corunner")
}

// BenchmarkSimulator_EventThroughput measures raw simulator speed on the
// heaviest scenario (events processed per wall second are the limiting
// cost of every experiment above).
func BenchmarkSimulator_EventThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		mustRun(b, corun("dedup", off()))
	}
}

// BenchmarkRunAll_SweepGrid measures a whole static-pool sweep submitted as
// one grid through experiment.RunAll — the unit of work every table and
// figure generator now hands to the worker pool. Run with -cpu to compare
// worker counts; results are bit-identical at any parallelism.
func BenchmarkRunAll_SweepGrid(b *testing.B) {
	grid := make([]experiment.Setup, 0, 4)
	for n := 0; n <= 3; n++ {
		cc := core.StaticConfig(n)
		if n == 0 {
			cc.Mode = core.ModeOff
		}
		grid = append(grid, corun("exim", cc))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiment.RunAll(grid); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1_RivalComparison quantifies the paper's Table 1: each
// implemented prior-work system against the micro-sliced mechanism on the
// lock-holder-preemption scenario.
func BenchmarkTable1_RivalComparison(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		vturbo := corun("exim", off())
		vturbo.Rival = experiment.RivalVTurbo
		vt := mustRun(b, vturbo)
		us := mustRun(b, corun("exim", core.StaticConfig(1)))
		gap = float64(us.VM("exim").Units) / float64(vt.VM("exim").Units)
	}
	b.ReportMetric(gap, "usliced/vturbo-lock-throughput")
}
