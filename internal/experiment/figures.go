package experiment

import (
	"fmt"
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// MaxStaticCores is the largest static micro pool swept (paper: 6 of 12).
const MaxStaticCores = 6

// ---------------------------------------------------------------------------
// Figures 4 and 5 — performance vs number of micro-sliced cores
// ---------------------------------------------------------------------------

// SweepPoint is one (workload, #µcores) measurement.
type SweepPoint struct {
	MicroCores int // 0 = baseline
	AppUnits   uint64
	CoUnits    uint64
}

// SweepResult is the static µcore sweep of one workload pair.
type SweepResult struct {
	Workload string
	Points   []SweepPoint // index = micro cores, 0..MaxStaticCores
}

// Baseline returns the 0-µcore point.
func (s *SweepResult) Baseline() SweepPoint { return s.Points[0] }

// NormExecTime returns the workload's normalized execution time at n cores
// (baseline = 1.0; lower is better).
func (s *SweepResult) NormExecTime(n int) float64 {
	return float64(s.Baseline().AppUnits) / float64(s.Points[n].AppUnits)
}

// CoNormExecTime returns the co-runner's normalized execution time.
func (s *SweepResult) CoNormExecTime(n int) float64 {
	return float64(s.Baseline().CoUnits) / float64(s.Points[n].CoUnits)
}

// ThroughputGain returns the workload's throughput improvement at n cores
// (baseline = 1.0; higher is better).
func (s *SweepResult) ThroughputGain(n int) float64 {
	return float64(s.Points[n].AppUnits) / float64(s.Baseline().AppUnits)
}

// BestStatic returns the static core count (1..max) with the highest
// workload throughput.
func (s *SweepResult) BestStatic() int {
	best, bestUnits := 1, uint64(0)
	for n := 1; n < len(s.Points); n++ {
		if s.Points[n].AppUnits > bestUnits {
			best, bestUnits = n, s.Points[n].AppUnits
		}
	}
	return best
}

// sweepSetups builds the 0..maxCores static grid of one workload pair.
func sweepSetups(app string, maxCores int, dur simtime.Duration) []Setup {
	setups := make([]Setup, 0, maxCores+1)
	for n := 0; n <= maxCores; n++ {
		cc := core.StaticConfig(n)
		if n == 0 {
			cc.Mode = core.ModeOff
		}
		setups = append(setups, corunSetup(app, cc, dur))
	}
	return setups
}

// sweepAll submits the whole (workload x #µcores) grid as one RunAll batch,
// so scenario parallelism spans workloads as well as pool sizes.
func sweepAll(apps []string, maxCores int, dur simtime.Duration) ([]*SweepResult, error) {
	var setups []Setup
	for _, app := range apps {
		setups = append(setups, sweepSetups(app, maxCores, dur)...)
	}
	results, err := RunAll(setups)
	if err != nil {
		return nil, err
	}
	stride := maxCores + 1
	out := make([]*SweepResult, len(apps))
	for ai, app := range apps {
		sr := &SweepResult{Workload: app}
		for n := 0; n <= maxCores; n++ {
			res := results[ai*stride+n]
			sr.Points = append(sr.Points, SweepPoint{
				MicroCores: n,
				AppUnits:   res.VM(app).Units,
				CoUnits:    res.VM("swaptions").Units,
			})
		}
		out[ai] = sr
	}
	return out, nil
}

// Figure4Result reproduces paper Figure 4: normalized execution time for
// gmake, memclone, dedup and vips (plus the swaptions co-runner) as the
// static micro pool grows.
type Figure4Result struct {
	Sweeps []*SweepResult
}

// Figure4Workloads are the execution-time workloads of Figure 4.
var Figure4Workloads = []string{"gmake", "memclone", "dedup", "vips"}

// Figure4 runs the Figure 4 sweep.
func Figure4(dur simtime.Duration) (*Figure4Result, error) {
	sweeps, err := sweepAll(Figure4Workloads, MaxStaticCores, dur)
	if err != nil {
		return nil, err
	}
	return &Figure4Result{Sweeps: sweeps}, nil
}

// Render implements report.Renderer.
func (r *Figure4Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 4: normalized execution time vs number of micro-sliced cores (lower is better)",
		Columns: []string{"workload", "series", "base", "1", "2", "3", "4", "5", "6"},
	}
	for _, s := range r.Sweeps {
		app := []any{s.Workload, s.Workload, "1.00"}
		cor := []any{"", "swaptions", "1.00"}
		for n := 1; n < len(s.Points); n++ {
			app = append(app, fmt.Sprintf("%.2f", s.NormExecTime(n)))
			cor = append(cor, fmt.Sprintf("%.2f", s.CoNormExecTime(n)))
		}
		t.AddRow(app...)
		t.AddRow(cor...)
	}
	t.Notes = append(t.Notes,
		"paper shape: gmake/memclone best at 1 core; dedup/vips need 2-3 (1 core can hurt); >=4 cores degrade",
	)
	t.Render(w)
}

// Figure5Result reproduces paper Figure 5: throughput improvement for exim
// and psearchy plus swaptions' normalized execution time.
type Figure5Result struct {
	Sweeps []*SweepResult
}

// Figure5Workloads are the throughput workloads of Figure 5.
var Figure5Workloads = []string{"exim", "psearchy"}

// Figure5 runs the Figure 5 sweep.
func Figure5(dur simtime.Duration) (*Figure5Result, error) {
	sweeps, err := sweepAll(Figure5Workloads, MaxStaticCores, dur)
	if err != nil {
		return nil, err
	}
	return &Figure5Result{Sweeps: sweeps}, nil
}

// Render implements report.Renderer.
func (r *Figure5Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 5: throughput improvement vs number of micro-sliced cores (higher is better)",
		Columns: []string{"workload", "series", "base", "1", "2", "3", "4", "5", "6"},
	}
	for _, s := range r.Sweeps {
		app := []any{s.Workload, s.Workload + " speedup", "1.00"}
		cor := []any{"", "swaptions time", "1.00"}
		for n := 1; n < len(s.Points); n++ {
			app = append(app, fmt.Sprintf("%.2f", s.ThroughputGain(n)))
			cor = append(cor, fmt.Sprintf("%.2f", s.CoNormExecTime(n)))
		}
		t.AddRow(app...)
		t.AddRow(cor...)
	}
	t.Notes = append(t.Notes, "paper: exim 3.9x at 1 core (10% swaptions cost); psearchy 1.4x at 1 core")
	t.Render(w)
}

// ---------------------------------------------------------------------------
// Figure 6 — static best vs dynamic
// ---------------------------------------------------------------------------

// Figure6Row compares one workload pair across the three configurations.
type Figure6Row struct {
	Workload    string
	StaticCores int
	// Gains are throughput ratios vs baseline (>1 is better) for the app;
	// co-runner values are normalized execution time (>1 is worse).
	StaticGain    float64
	DynamicGain   float64
	StaticCoTime  float64
	DynamicCoTime float64
	DynamicAvgMu  float64
}

// Figure6Result reproduces paper Figure 6.
type Figure6Result struct {
	Rows []Figure6Row
}

// Figure6Workloads are the pairs compared in Figure 6.
var Figure6Workloads = []string{"gmake", "memclone", "dedup", "vips", "exim", "psearchy"}

// DefaultStaticBest is the per-workload static-best pool size used when no
// sweep results are supplied (values from our Figure 4/5 sweeps).
var DefaultStaticBest = map[string]int{
	"gmake": 1, "memclone": 1, "dedup": 3, "vips": 3, "exim": 1, "psearchy": 1,
}

// Figure6 compares the static-best configuration with the adaptive
// controller. bests may be nil (DefaultStaticBest is used) or come from
// Figure4/Figure5 sweeps.
func Figure6(dur simtime.Duration, bests map[string]int) (*Figure6Result, error) {
	if bests == nil {
		bests = DefaultStaticBest
	}
	nBestOf := func(app string) int {
		if n := bests[app]; n > 0 {
			return n
		}
		return 1
	}
	// Grid: (baseline, static-best, dynamic) per workload, one RunAll batch.
	var setups []Setup
	for _, app := range Figure6Workloads {
		setups = append(setups,
			corunSetup(app, offConfig(), dur),
			corunSetup(app, core.StaticConfig(nBestOf(app)), dur),
			corunSetup(app, core.DefaultConfig(), dur),
		)
	}
	results, err := RunAll(setups)
	if err != nil {
		return nil, err
	}
	out := &Figure6Result{}
	for i, app := range Figure6Workloads {
		base, static, dyn := results[3*i], results[3*i+1], results[3*i+2]
		bu, bc := base.VM(app).Units, base.VM("swaptions").Units
		out.Rows = append(out.Rows, Figure6Row{
			Workload:      app,
			StaticCores:   nBestOf(app),
			StaticGain:    float64(static.VM(app).Units) / float64(bu),
			DynamicGain:   float64(dyn.VM(app).Units) / float64(bu),
			StaticCoTime:  float64(bc) / float64(static.VM("swaptions").Units),
			DynamicCoTime: float64(bc) / float64(dyn.VM("swaptions").Units),
			DynamicAvgMu:  dyn.MicroAvg,
		})
	}
	return out, nil
}

// Render implements report.Renderer.
func (r *Figure6Result) Render(w io.Writer) {
	t := report.Table{
		Title: "Figure 6: static best vs dynamic micro-sliced cores",
		Columns: []string{"workload", "static N", "static gain", "dynamic gain",
			"static co-time", "dynamic co-time", "dyn avg ucores"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Workload, row.StaticCores, row.StaticGain, row.DynamicGain,
			row.StaticCoTime, row.DynamicCoTime, row.DynamicAvgMu)
	}
	t.Notes = append(t.Notes, "gain = workload throughput vs baseline (>1 better); co-time = swaptions normalized execution time (>1 worse)")
	t.Notes = append(t.Notes, "paper: dynamic within ~5% of static best (memclone/dedup -5%, exim slightly above, psearchy -20% but +20% over baseline)")
	t.Render(w)
}

// ---------------------------------------------------------------------------
// Figure 7 — reduction of yield events
// ---------------------------------------------------------------------------

// Figure7Row is one workload's yield decomposition under one configuration.
type Figure7Row struct {
	Workload string
	Config   string // B, S, D
	Yields   YieldBreakdown
}

// Figure7Result reproduces paper Figure 7.
type Figure7Result struct {
	Rows []Figure7Row
}

// Figure7 decomposes yields by source for baseline/static/dynamic.
func Figure7(dur simtime.Duration, bests map[string]int) (*Figure7Result, error) {
	if bests == nil {
		bests = DefaultStaticBest
	}
	labels := [3]string{"B", "S", "D"}
	var setups []Setup
	for _, app := range Figure6Workloads {
		nBest := bests[app]
		if nBest == 0 {
			nBest = 1
		}
		setups = append(setups,
			corunSetup(app, offConfig(), dur),
			corunSetup(app, core.StaticConfig(nBest), dur),
			corunSetup(app, core.DefaultConfig(), dur),
		)
	}
	results, err := RunAll(setups)
	if err != nil {
		return nil, err
	}
	out := &Figure7Result{}
	for i, app := range Figure6Workloads {
		for j, label := range labels {
			out.Rows = append(out.Rows, Figure7Row{
				Workload: app,
				Config:   label,
				Yields:   results[3*i+j].VM(app).Yields,
			})
		}
	}
	return out, nil
}

// Render implements report.Renderer.
func (r *Figure7Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 7: yield events by source (B: baseline, S: static, D: dynamic)",
		Columns: []string{"workload", "cfg", "ipi", "spinlock", "halt", "others", "total", "vs B"},
	}
	var baseTotal uint64
	for _, row := range r.Rows {
		if row.Config == "B" {
			baseTotal = row.Yields.Total()
		}
		rel := "-"
		if baseTotal > 0 {
			rel = fmt.Sprintf("%.2f", float64(row.Yields.Total())/float64(baseTotal))
		}
		t.AddRow(row.Workload, row.Config, row.Yields.IPI, row.Yields.PLE,
			row.Yields.Halt, row.Yields.Other, row.Yields.Total(), rel)
	}
	t.Notes = append(t.Notes, "paper shape: S and D cut IPI- and PLE-induced yields sharply; halt yields shrink as utilization recovers")
	t.Render(w)
}

// ---------------------------------------------------------------------------
// Figure 8 — overhead on non-affected workloads
// ---------------------------------------------------------------------------

// Figure8Row is one user-level workload's overhead measurement.
type Figure8Row struct {
	Workload     string
	NormExecTime float64 // dynamic vs baseline (1.00 = no overhead)
	CoNormTime   float64
}

// Figure8Result reproduces paper Figure 8.
type Figure8Result struct {
	Rows []Figure8Row
}

// Figure8Workloads are the user-level applications of Figure 8.
var Figure8Workloads = []string{
	"blackscholes", "bodytrack", "streamcluster", "raytrace",
	"perlbench", "sjeng", "bzip2",
}

// Figure8 measures the dynamic mechanism's overhead on workloads that do
// not exercise critical OS services.
func Figure8(dur simtime.Duration) (*Figure8Result, error) {
	var setups []Setup
	for _, app := range Figure8Workloads {
		setups = append(setups,
			corunSetup(app, offConfig(), dur),
			corunSetup(app, core.DefaultConfig(), dur),
		)
	}
	results, err := RunAll(setups)
	if err != nil {
		return nil, err
	}
	out := &Figure8Result{}
	for i, app := range Figure8Workloads {
		base, dyn := results[2*i], results[2*i+1]
		out.Rows = append(out.Rows, Figure8Row{
			Workload:     app,
			NormExecTime: float64(base.VM(app).Units) / float64(dyn.VM(app).Units),
			CoNormTime:   float64(base.VM("swaptions").Units) / float64(dyn.VM("swaptions").Units),
		})
	}
	return out, nil
}

// Render implements report.Renderer.
func (r *Figure8Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 8: non-affected workloads, dynamic vs baseline (1.00 = no overhead)",
		Columns: []string{"workload", "norm exec time", "swaptions norm time"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Workload, row.NormExecTime, row.CoNormTime)
	}
	t.Notes = append(t.Notes, "paper: ~2-3% average overhead")
	t.Render(w)
}
