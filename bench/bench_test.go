package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []jsonMetric `json:"end_to_end"`
	PerLayer []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func loadBenchmarkJSON(t *testing.T) *benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &bj
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the metric and
// workload tables the benchmark reports from.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, bench runs %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q/%q, bench %q/%q", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	check := func(kind string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, bench reports %d", kind, len(got), len(want))
			return
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s %d: BENCHMARK.json %s %s %s, bench %s %s %s", kind, i, g.Name, g.Unit, g.Better, m.name, m.unit, m.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != m.bound) {
				t.Errorf("%s: BENCHMARK.json bound %v, bench %v", m.name, g.Bound, m.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s: per-layer metric has a bound", m.name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd, true)
	check("per_layer", bj.PerLayer, perLayer, false)
	for _, m := range endToEnd {
		if m.bound > endToEnd[len(endToEnd)-1].bound {
			t.Errorf("%s bound %v: no bound may exceed setup_s's", m.name, m.bound)
		}
	}
}

// reduced returns the workload cut down to one round of 0.2 simulated
// seconds per scenario.
func reduced(t *testing.T, name string) *workload {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	r := *wl
	r.simDur = 200 * simtime.Millisecond
	r.minRounds = 1
	return &r
}

// runReduced runs a reduced workload (the time budget is spent by the
// single minimum round) and returns its result and printed report.
func runReduced(t *testing.T, b *bench) (*result, *detail, string) {
	t.Helper()
	var out bytes.Buffer
	b.out, b.seconds = &out, 1e-9
	res, det, err := b.run()
	if err != nil {
		t.Fatal(err)
	}
	return res, det, out.String()
}

// TestReducedGridReportsEveryMetric runs every workload's reduced grid,
// timed and traced, and checks the report against BENCHMARK.json: every
// named metric is printed with its unit, the last line is the result
// object, no op fails, and the layer shares sum to 100%.
func TestReducedGridReportsEveryMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range bj.Workloads {
		for _, traced := range []bool{false, true} {
			res, det, out := runReduced(t, &bench{wl: reduced(t, w.Name), seed: 5, trace: traced})
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: %d/%d failed %v\n%s", w.Name, traced, res.Failed, res.Attempted, det.Reasons, out)
			}
			lines := strings.Split(strings.TrimSpace(out), "\n")
			var last map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
				if _, ok := last[k]; !ok {
					t.Errorf("%s: result line lacks %q", w.Name, k)
				}
			}
			if len(last) != 4 {
				t.Errorf("%s: result line has %d keys, want 4", w.Name, len(last))
			}
			want := bj.EndToEnd
			if traced {
				want = bj.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				mv, ok := res.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit {
					t.Errorf("%s: metric %s missing or unit %q != %q", w.Name, m.Name, mv.Unit, m.Unit)
				}
				if !printed(out, m.Name, m.Unit) {
					t.Errorf("%s: report does not print %s with unit %s", w.Name, m.Name, m.Unit)
				}
			}
			if !printed(out, "sim_digest", det.SimDigest) || !printed(out, "ops", "") || !printed(out, "failed", "") {
				t.Errorf("%s: report lacks sim_digest, ops or failed\n%s", w.Name, out)
			}
			if traced {
				total := 0.0
				for _, l := range layers {
					total += res.Metrics[l+".self_pct"].Value
				}
				if math.Abs(total-100) > 0.5 {
					t.Errorf("%s: layer shares sum to %.3f%%", w.Name, total)
				}
			}
		}
	}
}

// printed reports whether some report line names the metric and carries
// the unit.
func printed(out, name, unit string) bool {
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) >= 2 && f[0] == name && strings.Contains(line, unit) {
			return true
		}
	}
	return false
}

// TestReducedGridDeterministic: two traced runs of a seed agree on the
// sim_digest and on every exact metric.
func TestReducedGridDeterministic(t *testing.T) {
	for _, name := range []string{"corun-usliced", "faults-observed"} {
		a, da, _ := runReduced(t, &bench{wl: reduced(t, name), seed: 9, trace: true})
		b, db, _ := runReduced(t, &bench{wl: reduced(t, name), seed: 9, trace: true})
		if da.SimDigest != db.SimDigest {
			t.Errorf("%s: sim_digest %s then %s", name, da.SimDigest, db.SimDigest)
		}
		for _, m := range perLayer {
			if m.exact && !equalWithin(a.Metrics[m.name].Value, b.Metrics[m.name].Value, exactTolerance(m)) {
				t.Errorf("%s: %s %v then %v", name, m.name, a.Metrics[m.name].Value, b.Metrics[m.name].Value)
			}
		}
	}
}

// TestFailuresAreCounted is the teeth test: a post-run check that rejects
// a run and a traced digest that differs from the timed one must each show
// up in failed, with their reason, not vanish from the report.
func TestFailuresAreCounted(t *testing.T) {
	reject := errors.New("injected rejection")
	calls := 0
	b := &bench{wl: reduced(t, "corun-credit"), seed: 2, trace: true,
		extraCheck: func(*experiment.PostRun) error {
			calls++
			if calls == 2 {
				return reject
			}
			return nil
		},
		perturbDigest: func(op int, d string) string {
			if op == 4 {
				return "perturbed"
			}
			return d
		},
	}
	res, det, out := runReduced(t, b)
	want := map[string]int{reasonConserve: 1, reasonDigest: 1}
	if res.Failed != 2 || res.Correct || !reflect.DeepEqual(det.Reasons, want) {
		t.Fatalf("failed=%d correct=%v reasons=%v, want 2 failures %v\n%s", res.Failed, res.Correct, det.Reasons, want, out)
	}
	if !strings.Contains(out, reject.Error()) {
		t.Errorf("report does not name the rejected op's error\n%s", out)
	}
}

// TestShapeFlipIsCounted: a serve-sweep cell whose SLO verdict flips
// fails its op.
func TestShapeFlipIsCounted(t *testing.T) {
	miss := &experiment.RequestStats{Offered: 100, Dropped: 50}
	meet := &experiment.RequestStats{Offered: 100}
	for _, tc := range []struct {
		want shapeWant
		got  *experiment.RequestStats
		fail bool
	}{
		{shapeMeet, meet, false}, {shapeMeet, miss, true},
		{shapeMiss, miss, false}, {shapeMiss, meet, true},
		{shapeAny, miss, false},
	} {
		o := &op{sc: scenario{shape: tc.want}, sim: &simCounts{req: tc.got}}
		if got := len(checkOp(o, false)) > 0; got != tc.fail {
			t.Errorf("shape %d with %+v: failed=%v, want %v", tc.want, *tc.got, got, tc.fail)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestLayerAttribution pins the attribution rule on hand-built stacks.
func TestLayerAttribution(t *testing.T) {
	const p = modulePrefix
	for _, tc := range []struct {
		frames []string
		layer  string
		ok     bool
	}{
		{[]string{p + "simtime.eventHeap.siftDown", p + "simtime.(*Clock).Step", "main.main"}, "simtime", true},
		{[]string{"runtime.mapaccess2_faststr", p + "core.(*Controller).classify", p + "hv.(*Hypervisor).Yield"}, "core", true},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime", true},
		{[]string{"runtime.mallocgc", "main.digest", p + "experiment.Run"}, "", false},
		{[]string{p + "hv.(*Hypervisor).VCPUs", p + "check.Conservation", p + "experiment.Run"}, "", false},
		{[]string{"runtime/pprof.profileWriter"}, "", false},
	} {
		layer, ok := layerOf(tc.frames)
		if layer != tc.layer || ok != tc.ok {
			t.Errorf("layerOf(%v) = %q, %v, want %q, %v", tc.frames, layer, ok, tc.layer, tc.ok)
		}
	}
	sp := attribute([]stack{
		{frames: []string{p + "hv.(*Hypervisor).emit", p + "hv.(*Hypervisor).dispatch"}, count: 3},
		{frames: []string{p + "trace.(*Buffer).Emit", p + "hv.(*Hypervisor).emit"}, count: 1},
		{frames: []string{p + "check.Conservation"}, count: 5},
	})
	if sp.samples != 4 || sp.layer["hv"] != 3 || sp.layer["trace"] != 1 || sp.pct(sp.group["trace.emit_pct"]) != 100 {
		t.Errorf("attribute: samples %d layers %v groups %v", sp.samples, sp.layer, sp.group)
	}
}

// TestVerdict exercises compare's decision rule.
func TestVerdict(t *testing.T) {
	ms, _ := metricByName("ref_ms_per_simsec")
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		change []float64
		prefix string
	}{
		{scale(parent, 0.8), "gain"},
		{scale(parent, 1.0), "no regression"},
		{scale(parent, 1.3), "regressed"},
		{scale(parent[:5], 0.8), "no regression"}, // too few pairs for a gain
	} {
		if got := verdict(ms, parent, tc.change); !strings.HasPrefix(got, tc.prefix) {
			t.Errorf("verdict(%v) = %q, want %s", tc.change, got, tc.prefix)
		}
	}
	noisy := []float64{60, 100, 140, 80, 120, 70, 130, 90, 110, 100}
	if got := verdict(ms, noisy, scale(noisy, 1.05)); !strings.HasPrefix(got, "unresolved") {
		t.Errorf("noisy parent: %q, want unresolved", got)
	}
	allocs, _ := metricByName("allocs_per_simsec")
	if got := verdict(allocs, []float64{1e5}, []float64{1e5 + 1}); got != "same" {
		t.Errorf("allocs within tolerance: %q", got)
	}
	if got := verdict(allocs, []float64{1e5}, []float64{0.9e5}); !strings.HasPrefix(got, "changed") {
		t.Errorf("allocs moved: %q", got)
	}
}
