package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change pairs on which compare will call a
// gain.
const minPairs = 10

// runSeries is a run file's values, per workload and metric, in run order,
// plus each workload's sim_digest per run (keyed by trace mode and seed).
type runSeries struct {
	vals    map[string]map[string][]float64
	seeds   map[string]map[string][]uint64 // the seed behind each value
	digests map[string]map[string]string
	ops     map[string]int
	failed  map[string]int
}

func seriesOf(f *runFile) *runSeries {
	s := &runSeries{
		vals:    map[string]map[string][]float64{},
		seeds:   map[string]map[string][]uint64{},
		digests: map[string]map[string]string{},
		ops:     map[string]int{},
		failed:  map[string]int{},
	}
	for _, run := range f.Runs {
		for wl, wr := range run.Workloads {
			if wr.Result == nil || wr.Detail == nil {
				continue
			}
			if s.vals[wl] == nil {
				s.vals[wl] = map[string][]float64{}
				s.seeds[wl] = map[string][]uint64{}
				s.digests[wl] = map[string]string{}
			}
			for name, mv := range wr.Result.Metrics {
				s.vals[wl][name] = append(s.vals[wl][name], mv.Value)
				s.seeds[wl][name] = append(s.seeds[wl][name], run.Seed)
			}
			s.digests[wl][fmt.Sprintf("trace%d/seed%d", run.Trace, run.Seed)] = wr.Detail.SimDigest
			s.ops[wl] += wr.Result.Attempted
			s.failed[wl] += wr.Result.Failed
		}
	}
	return s
}

// verdict compares one metric's paired runs of the parent (a) and the
// change (b) by the rule of choosing-metrics §8: a gain needs at least nine
// tenths of the pairs won and a median gap wider than the parent's own
// interquartile range; a spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func verdict(m metricDef, a, b []float64) string {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	if n == 0 {
		return "no data"
	}
	if m.exact {
		for i := range a {
			if !equalWithin(a[i], b[i], exactTolerance(m)) {
				return fmt.Sprintf("changed (%+.4g%%)", 100*(median(b)-median(a))/math.Abs(median(a)))
			}
		}
		return "same"
	}
	better := func(x, y float64) bool { // x better than y
		if m.better == "higher" {
			return x > y
		}
		return x < y
	}
	ma, mb := median(a), median(b)
	q1, q3 := quartiles(a)
	wins := 0
	for i := range a {
		if better(b[i], a[i]) {
			wins++
		}
	}
	if n >= minPairs && 10*wins >= 9*n && better(mb, ma) && math.Abs(mb-ma) > q3-q1 {
		return fmt.Sprintf("gain (%d/%d pairs)", wins, n)
	}
	if m.bound == 0 { // a per-layer figure: report the shift, claim nothing
		return fmt.Sprintf("median %+.4g %s, %d/%d pairs %s", mb-ma, m.unit, wins, n, m.better)
	}
	worse := (mb - ma) / ma
	if m.better == "higher" {
		worse = -worse
	}
	if (q3-q1)/ma > m.bound && !allBetter(b, a, better) {
		return "unresolved (spread above bound)"
	}
	if worse > m.bound {
		return fmt.Sprintf("regressed (%+.1f%% > %.0f%% bound)", 100*worse, 100*m.bound)
	}
	return "no regression"
}

// exactTolerance is the relative difference an exact metric may show.
// Simulated quantities repeat bit for bit. Go's heap allocation counts
// depend slightly on map growth, which follows the per-process hash seed:
// over a full run they repeat to about one part in a million, over the
// tests' single short round to about one in ten thousand.
func exactTolerance(m metricDef) float64 {
	switch m.name {
	case "allocs_per_simsec", "alloc_mb_per_simsec", "runtime.allocs_per_event":
		return 1e-3
	}
	return 0
}

func equalWithin(x, y, tol float64) bool {
	if x == y {
		return true
	}
	return math.Abs(x-y) <= tol*math.Max(math.Abs(x), math.Abs(y))
}

func allBetter(b, a []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// compareMain implements "bench compare parent.json change.json". Run i
// of one file pairs with run i of the other; record the pairs alternately
// (parent first, then change first) with the same seeds.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare parent.json change.json")
		return 2
	}
	var files [2]*runFile
	for i, path := range args {
		f, err := loadRunFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		files[i] = f
	}
	writeComparison(os.Stdout, seriesOf(files[0]), seriesOf(files[1]))
	return 0
}

func writeComparison(w io.Writer, a, b *runSeries) {
	for _, wl := range workloads {
		av, bv := a.vals[wl.name], b.vals[wl.name]
		if av == nil || bv == nil {
			continue
		}
		fmt.Fprintf(w, "%s: parent %d ops %d failed, change %d ops %d failed\n",
			wl.name, a.ops[wl.name], a.failed[wl.name], b.ops[wl.name], b.failed[wl.name])
		fmt.Fprintf(w, "  %-32s %-34s %-34s %s\n", "metric", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
		pairs := math.MaxInt
		for _, tbl := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range tbl {
				x, y := av[m.name], bv[m.name]
				if len(x) == 0 || len(y) == 0 {
					continue
				}
				pairs = min(pairs, len(x), len(y))
				fmt.Fprintf(w, "  %-32s %-34s %-34s %s\n", m.name, spread(x), spread(y), verdict(m, x, y))
			}
		}
		if pairs < minPairs {
			fmt.Fprintf(w, "  note: only %d pairs; claiming a gain needs %d\n", pairs, minPairs)
		}
		same, diff := 0, 0
		for key, d := range a.digests[wl.name] {
			if e, ok := b.digests[wl.name][key]; ok {
				if d == e {
					same++
				} else {
					diff++
				}
			}
		}
		fmt.Fprintf(w, "  %-32s %d runs same, %d changed\n", "sim_digest", same, diff)
	}
}

func spread(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
}

// metricSummary is one metric's distribution over a set of runs.
type metricSummary struct {
	Unit      string  `json:"unit"`
	N         int     `json:"n"`
	Median    float64 `json:"median"`
	Q1        float64 `json:"q1"`
	Q3        float64 `json:"q3"`
	SpreadPct float64 `json:"spread_pct"` // (q3 - q1) / median
}

type workloadSummary struct {
	Ops     int                      `json:"ops"`
	Failed  int                      `json:"failed"`
	Metrics map[string]metricSummary `json:"metrics"`
	Digests map[string]string        `json:"sim_digests"`
}

type setSummary struct {
	File      string                     `json:"file"`
	Machine   machine                    `json:"machine"`
	Runs      int                        `json:"runs"`
	From      string                     `json:"from"`
	To        string                     `json:"to"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// agreement is how a later set's median of an end-to-end metric sits
// against the first set's, and whether both sets' spreads and the gap
// stay within the metric's bound.
type agreement struct {
	WorsePct  float64 `json:"worse_pct"`
	BoundPct  float64 `json:"bound_pct"`
	SpreadsOK bool    `json:"spreads_within_bound"`
	OK        bool    `json:"ok"`
}

type summaryDoc struct {
	Sets []setSummary `json:"sets"`
	// Agreement compares the second set with the first, per workload and
	// end-to-end metric; Identical says whether every exact metric and
	// sim_digest repeated for every seed the two sets share.
	Agreement map[string]map[string]agreement `json:"agreement,omitempty"`
	Identical map[string]bool                 `json:"exact_values_identical,omitempty"`
}

// summaryMain implements "bench summary set1.json [set2.json ...]": the
// medians, quartiles and digests of each set and, given two or more, the
// second set's agreement with the first, as JSON on standard output.
func summaryMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: bench summary set.json [set.json ...]")
		return 2
	}
	var doc summaryDoc
	var all []*runSeries
	for _, path := range args {
		f, err := loadRunFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		s := seriesOf(f)
		all = append(all, s)
		set := setSummary{File: path, Machine: f.Machine, Runs: len(f.Runs), Workloads: map[string]workloadSummary{}}
		if len(f.Runs) > 0 {
			set.From, set.To = f.Runs[0].Date, f.Runs[len(f.Runs)-1].Date
		}
		for wl, byMetric := range s.vals {
			ws := workloadSummary{Ops: s.ops[wl], Failed: s.failed[wl], Metrics: map[string]metricSummary{}, Digests: s.digests[wl]}
			for name, xs := range byMetric {
				m, _ := metricByName(name)
				q1, q3 := quartiles(xs)
				med := median(xs)
				ms := metricSummary{Unit: m.unit, N: len(xs), Median: med, Q1: q1, Q3: q3}
				if med != 0 {
					ms.SpreadPct = 100 * (q3 - q1) / math.Abs(med)
				}
				ws.Metrics[name] = ms
			}
			set.Workloads[wl] = ws
		}
		doc.Sets = append(doc.Sets, set)
	}
	if len(all) > 1 {
		doc.Agreement, doc.Identical = agree(all[0], all[1])
	}
	out, err := json.MarshalIndent(&doc, "", " ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

func agree(first, second *runSeries) (map[string]map[string]agreement, map[string]bool) {
	ag := map[string]map[string]agreement{}
	identical := map[string]bool{}
	for _, wl := range workloads {
		fv, sv := first.vals[wl.name], second.vals[wl.name]
		if fv == nil || sv == nil {
			continue
		}
		ag[wl.name] = map[string]agreement{}
		for _, m := range endToEnd {
			x, y := fv[m.name], sv[m.name]
			if len(x) == 0 || len(y) == 0 {
				continue
			}
			worse := (median(y) - median(x)) / median(x)
			if m.better == "higher" {
				worse = -worse
			}
			spreadsOK := true
			if m.name != "setup_s" { // set-up is held to its median only
				for _, xs := range [][]float64{x, y} {
					q1, q3 := quartiles(xs)
					spreadsOK = spreadsOK && (q3-q1)/median(xs) <= m.bound
				}
			}
			ag[wl.name][m.name] = agreement{
				WorsePct: 100 * worse, BoundPct: 100 * m.bound,
				SpreadsOK: spreadsOK, OK: spreadsOK && worse <= m.bound,
			}
		}
		same := true
		for _, tbl := range [][]metricDef{endToEnd, perLayer} {
			for _, m := range tbl {
				if m.exact {
					same = same && exactSame(first, second, wl.name, m)
				}
			}
		}
		for key, d := range first.digests[wl.name] {
			if e, ok := second.digests[wl.name][key]; ok && e != d {
				same = false
			}
		}
		identical[wl.name] = same
	}
	return ag, identical
}

// exactSame reports whether an exact metric took the same value for every
// seed two sets share.
func exactSame(a, b *runSeries, wl string, m metricDef) bool {
	bySeed := map[uint64]float64{}
	for i, seed := range a.seeds[wl][m.name] {
		bySeed[seed] = a.vals[wl][m.name][i]
	}
	for i, seed := range b.seeds[wl][m.name] {
		if x, ok := bySeed[seed]; ok && !equalWithin(x, b.vals[wl][m.name][i], exactTolerance(m)) {
			return false
		}
	}
	return true
}
