package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/microslicedcore/microsliced/internal/check"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// Failure reasons. An op fails once however many reasons it collects.
const (
	reasonRunError = "run_error"       // experiment.Run returned an error
	reasonConserve = "conservation"    // check.Conservation rejected the traced run
	reasonDigest   = "digest_mismatch" // the traced run's results differ from the timed run's
	reasonShape    = "shape"           // a serve-sweep cell lost its Figure-9 SLO verdict
)

const (
	// setupPasses is how many times one run measures set-up. The median
	// of several passes damps scheduler and GC noise on a quantity of a
	// few milliseconds.
	setupPasses = 21
	// setupDur is the simulated length of a set-up pass: long enough for
	// every fault plan to validate, short enough to run next to no events.
	setupDur = simtime.Microsecond
	// profileHz is the CPU sampling rate the traced pass asks for, ten
	// times pprof's default. Linux delivers at most its tick rate (250 Hz
	// on the reference machine), which still gives every workload over
	// 2,300 samples in a 25 s run.
	profileHz = 1000
)

// bench runs one workload for one seed.
type bench struct {
	wl      *workload
	seed    uint64
	seconds float64
	trace   bool
	out     io.Writer

	// extraCheck runs after check.Conservation on every traced scenario,
	// and perturbDigest may rewrite a traced op's digest. Both exist so the
	// tests can prove that such failures are counted.
	extraCheck    func(*experiment.PostRun) error
	perturbDigest func(op int, digest string) string

	roundPeakMB []float64 // peak RSS of each timed round
}

// op is one scenario run: the timed pass's measurements and, in a traced
// run, the traced pass's rerun of the same scenario.
type op struct {
	round  int
	sc     scenario
	simSec float64

	wallNs        int64
	refNs         int64 // the calibration kernel's run just before the op
	allocs, bytes uint64
	gcs           uint32 // GC cycles that ended during the op
	gcPauseNs     uint64
	digest        string
	sim           *simCounts
	err           error

	tracedNs, checkNs int64
	tracedDigest      string
	events, records   uint64
	tracedErr         error
	conserveFailed    bool

	reasons []string
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// detail carries what the result line has no room for; it is printed as
// one "detail {json}" line just before the result.
type detail struct {
	Workload  string         `json:"workload"`
	Seed      uint64         `json:"seed"`
	Trace     int            `json:"trace"`
	Rounds    int            `json:"rounds"`
	SimDigest string         `json:"sim_digest"`
	Reasons   map[string]int `json:"reasons"`
}

func (b *bench) run() (*result, *detail, error) {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	experiment.SetParallelism(1)

	setupS, setupMs, err := b.measureSetup()
	if err != nil {
		return nil, nil, err
	}
	var ops []*op
	var sp *split
	if b.trace {
		ops, sp, err = b.interleaved()
		if err != nil {
			return nil, nil, err
		}
	} else {
		start := time.Now()
		ops = b.timedRounds(0, func(round int) bool {
			return round+1 >= b.wl.minRounds && time.Since(start).Seconds() >= b.seconds
		})
	}

	reasons := map[string]int{}
	failed := 0
	for _, o := range ops {
		o.reasons = checkOp(o, b.trace)
		for _, r := range o.reasons {
			reasons[r]++
		}
		if len(o.reasons) > 0 {
			failed++
		}
	}
	core := coreOps(ops, b.wl.minRounds)
	sim := simMetrics(core)

	vals := map[string]float64{}
	if b.trace {
		for k, v := range sim {
			vals[k] = v
		}
		for k, v := range tracedMetrics(ops, core, sp, setupMs) {
			vals[k] = v
		}
	} else {
		// Allocation is counted on round 0 alone. Its cells are the same
		// for every seed, so the count repeats to within map-hash noise
		// and a 1% bound means something; over seeded rounds it follows
		// how much guest work each seed happens to simulate (over 20%
		// apart between seeds on corun-credit).
		ref := coreOps(ops, 1)
		var allocs, byteCount uint64
		for _, o := range ref {
			allocs += o.allocs
			byteCount += o.bytes
		}
		simSec := totalSimSec(ref)
		vals["ref_ms_per_simsec"] = msPerSimsec(ops, true)
		vals["allocs_per_simsec"] = float64(allocs) / simSec
		vals["alloc_mb_per_simsec"] = float64(byteCount) / 1e6 / simSec
		// One round's peak depends on where GC cycles fall against its
		// largest scenario; the median round is steady from run to run.
		vals["max_rss_mb"] = median(b.roundPeakMB)
		vals["setup_s"] = setupS
	}

	det := &detail{
		Workload:  b.wl.name,
		Seed:      b.seed,
		Rounds:    ops[len(ops)-1].round + 1,
		SimDigest: simDigest(core),
		Reasons:   reasons,
	}
	if b.trace {
		det.Trace = 1
	}
	res := &result{Correct: failed == 0, Attempted: len(ops), Failed: failed, Metrics: map[string]metricValue{}}
	defs := endToEnd
	if b.trace {
		defs = perLayer
	}
	for _, m := range defs {
		x := vals[m.name]
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = 0 // no clean op to measure; the failures already say why
		}
		res.Metrics[m.name] = metricValue{Value: x, Unit: m.unit}
	}
	b.report(res, det, ops, sim)
	return res, det, nil
}

// measureSetup builds round 0's grid as near-zero-length runs, once to warm
// up and then setupPasses times. It returns the median pass time in
// seconds and every scenario's build time in milliseconds, all scaled to
// the reference machine by a kernel run before each pass.
func (b *bench) measureSetup() (float64, []float64, error) {
	grid := b.wl.grid(seedsFor(b.seed, 0), setupDur)
	var passes, each []float64
	var refs []int64
	for p := 0; p <= setupPasses; p++ {
		ref := calibrate()
		start := time.Now()
		var builds []float64
		for _, sc := range grid {
			t0 := time.Now()
			if _, err := experiment.Run(sc.setup); err != nil {
				return 0, nil, fmt.Errorf("%s: set-up of %s: %w", b.wl.name, sc.cell, err)
			}
			builds = append(builds, float64(time.Since(t0).Nanoseconds())/1e6)
		}
		if p == 0 {
			continue // warm-up
		}
		refs = append(refs, ref)
		f := scales(refs)[len(refs)-1]
		passes = append(passes, time.Since(start).Seconds()*f)
		for _, ms := range builds {
			each = append(each, ms*f)
		}
	}
	return median(passes), each, nil
}

// timedRounds runs whole rounds from round first on, with tracing off,
// until done reports true after a round. It records each round's peak RSS.
func (b *bench) timedRounds(first int, done func(round int) bool) []*op {
	var ops []*op
	for round := first; ; round++ {
		resetPeakRSS()
		for _, sc := range b.wl.grid(seedsFor(b.seed, round), b.wl.simDur) {
			o := &op{round: round, sc: sc, simSec: sc.setup.Duration.Seconds(), refNs: calibrate()}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			res, err := experiment.Run(sc.setup)
			o.wallNs = time.Since(t0).Nanoseconds()
			runtime.ReadMemStats(&m1)
			o.allocs = m1.Mallocs - m0.Mallocs
			o.bytes = m1.TotalAlloc - m0.TotalAlloc
			o.gcs = m1.NumGC - m0.NumGC
			o.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
			o.err = err
			if err == nil {
				o.digest = digest(res)
				o.sim = countsOf(res, &sc.setup)
			}
			ops = append(ops, o)
		}
		b.roundPeakMB = append(b.roundPeakMB, peakRSSMB())
		if done(round) {
			return ops
		}
	}
}

// traceBlock is the length of one timed stretch in a traced run. The
// machine drifts in speed over tens of seconds (calibrate.go), so the
// traced rerun follows each short stretch rather than the whole timed
// pass; the two times then compare like with like.
const traceBlock = 2 * time.Second

// interleaved runs a traced run: timed stretches of whole rounds, each
// followed by its traced rerun, until the minimum rounds are done and the
// run's seconds are spent. A rerun takes about as long as its stretch, so
// the last stretch ends once the two together would fill the run. It
// returns the ops and the layer split of every traced rerun's CPU samples.
func (b *bench) interleaved() ([]*op, *split, error) {
	var ops []*op
	var stacks []stack
	start := time.Now()
	for round, last := 0, false; !last; {
		blockStart := time.Now()
		block := b.timedRounds(round, func(r int) bool {
			last = r+1 >= b.wl.minRounds && (time.Since(start)+time.Since(blockStart)).Seconds() >= b.seconds
			return last || time.Since(blockStart) >= traceBlock
		})
		prof, err := b.tracedPass(block, len(ops))
		if err != nil {
			return nil, nil, err
		}
		st, err := decodeProfile(prof)
		if err != nil {
			return nil, nil, err
		}
		stacks = append(stacks, st...)
		ops = append(ops, block...)
		round = block[len(block)-1].round + 1
	}
	return ops, attribute(stacks), nil
}

// tracedPass reruns every op's scenario under the CPU profiler with
// check.Conservation as its post-run check, and returns the profile.
// first is the index of ops[0] among the run's ops.
func (b *bench) tracedPass(ops []*op, first int) ([]byte, error) {
	var prof bytes.Buffer
	// StartCPUProfile would fix the rate at 100 Hz; setting it first keeps
	// profileHz (the runtime notes the override on standard error).
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	for i, o := range ops {
		s := o.sc.setup
		s.PostCheck = func(pr *experiment.PostRun) error {
			t0 := time.Now()
			defer func() { o.checkNs = time.Since(t0).Nanoseconds() }()
			o.events = pr.HV.Clock.Fired()
			o.records = traceRecords(pr)
			err := check.Conservation(pr)
			if err == nil && b.extraCheck != nil {
				err = b.extraCheck(pr)
			}
			o.conserveFailed = err != nil
			return err
		}
		t0 := time.Now()
		res, err := experiment.Run(s)
		o.tracedNs = time.Since(t0).Nanoseconds()
		o.tracedErr = err
		if err == nil {
			o.tracedDigest = digest(res)
			if b.perturbDigest != nil {
				o.tracedDigest = b.perturbDigest(first+i, o.tracedDigest)
			}
		}
	}
	pprof.StopCPUProfile()
	return prof.Bytes(), nil
}

// traceRecords sums the trace buffer's exact per-kind counts. Kinds are a
// small dense enum; Count reports 0 past the last one.
func traceRecords(pr *experiment.PostRun) uint64 {
	var n uint64
	for k := 0; k < 256; k++ {
		n += pr.HV.Trace.Count(trace.Kind(k))
	}
	return n
}

// checkOp lists the reasons an op failed.
func checkOp(o *op, traced bool) []string {
	var rs []string
	if o.err != nil {
		rs = append(rs, reasonRunError)
	}
	if traced {
		switch {
		case o.tracedErr != nil && o.conserveFailed:
			rs = append(rs, reasonConserve)
		case o.tracedErr != nil:
			if o.err == nil {
				rs = append(rs, reasonRunError)
			}
		case o.err == nil && o.tracedDigest != o.digest:
			rs = append(rs, reasonDigest)
		}
	}
	if o.sc.shape != shapeAny && o.sim != nil {
		m := experiment.ServeMeasure{Stats: o.sim.req}
		if m.MetSLO() != (o.sc.shape == shapeMeet) {
			rs = append(rs, reasonShape)
		}
	}
	return rs
}

// coreOps are the ops of the first minRounds rounds, which every run
// completes; the simulated counts are taken over exactly these.
func coreOps(ops []*op, minRounds int) []*op {
	n := 0
	for n < len(ops) && ops[n].round < minRounds {
		n++
	}
	return ops[:n]
}

func totalSimSec(ops []*op) float64 {
	t := 0.0
	for _, o := range ops {
		t += o.simSec
	}
	return t
}

func refsOf(ops []*op) []int64 {
	refs := make([]int64, len(ops))
	for i, o := range ops {
		refs[i] = o.refNs
	}
	return refs
}

// opMsPerSimsec lists the host milliseconds per simulated second of every
// op that ran cleanly; with scaled set, each op's time is scaled to the
// reference machine by the calibration kernel run beside it.
func opMsPerSimsec(ops []*op, scaled bool) []float64 {
	f := scales(refsOf(ops))
	var out []float64
	for i, o := range ops {
		if o.err == nil {
			out = append(out, float64(o.wallNs)/1e6/o.simSec*scale(f[i], scaled))
		}
	}
	return out
}

// msPerSimsec is the host time of every clean op over their simulated
// time, scaled or raw: what the run's grid costs per simulated second.
// Unlike the median op it does not jump between the clusters the grid's
// cells form (serve-sweep's 40 cells span 2 to 20 ms/simsec).
func msPerSimsec(ops []*op, scaled bool) float64 {
	f := scales(refsOf(ops))
	var ms, simSec float64
	for i, o := range ops {
		if o.err == nil {
			ms += float64(o.wallNs) / 1e6 * scale(f[i], scaled)
			simSec += o.simSec
		}
	}
	return ms / simSec
}

func scale(f float64, scaled bool) float64 {
	if scaled {
		return f
	}
	return 1
}

// peakRSSMB is the peak resident set of this process image, in MB, since
// the last resetPeakRSS. It reads VmHWM rather than getrusage's ru_maxrss,
// which on Linux keeps the peak of whatever image the process ran before
// exec (a Python script that launched it, say).
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb * 1024 / 1e6
			}
		}
	}
	return 0
}

// resetPeakRSS restarts the VmHWM high-water mark at the current resident
// set. Where the kernel refuses, VmHWM stays the process-wide peak.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// simCounts is what an op's Result contributes to the per-layer counts.
type simCounts struct {
	hv                            map[string]uint64
	triggers, migrAttempt, migrOK uint64
	microAvg                      float64
	decisions                     uint64
	units                         uint64
	tlbN, lockN                   uint64
	tlbSum, lockSum               float64
	req                           *experiment.RequestStats
	telemetry                     bool
	spans                         uint64
	spanP99                       map[string]float64 // kind → p99 ns
	recovery                      bool               // the scenario ran the supervisor
	repairs                       uint64
	mttr                          simtime.Duration
	faults                        bool // the scenario injected faults
	lostIPIs                      int
}

// spanKinds are the span kinds whose p99 the per-layer split reports.
var spanKinds = []string{"wake_dispatch", "ipi_deliver", "lock_acquire"}

func countsOf(res *experiment.Result, s *experiment.Setup) *simCounts {
	c := &simCounts{
		recovery:    s.Recovery != nil,
		faults:      s.Faults != nil,
		hv:          res.HV,
		triggers:    res.Core["trigger.ple"] + res.Core["trigger.ipi"] + res.Core["trigger.virq"] + res.Core["trigger.vipi"],
		migrAttempt: res.Core["migrate.attempt"],
		migrOK:      res.Core["migrate.ok"],
		microAvg:    res.MicroAvg,
		decisions:   res.DecisionCount,
		repairs:     res.RepairCount,
		mttr:        res.MTTR,
		lostIPIs:    res.LostIPIs,
	}
	addHist := func(n *uint64, s *float64, h *metrics.Histogram) {
		if h != nil {
			*n += h.Count()
			*s += h.Mean() * float64(h.Count())
		}
	}
	for i := range res.VMs {
		vm := &res.VMs[i]
		c.units += vm.Units
		addHist(&c.tlbN, &c.tlbSum, vm.TLB)
		for _, h := range vm.LockStat {
			addHist(&c.lockN, &c.lockSum, h)
		}
		if vm.Requests != nil {
			rq := *vm.Requests
			c.req = &rq
		}
	}
	if t := res.Telemetry; t != nil {
		c.telemetry = true
		c.spanP99 = map[string]float64{}
		for _, s := range t.Spans {
			c.spans += s.Count
		}
		for _, k := range spanKinds {
			if s := t.Span(k); s != nil {
				c.spanP99[k] = float64(s.P99)
			}
		}
	}
	return c
}

// simMetrics derives the per-layer counts from the Results of ops; every
// value is a simulated quantity and repeats exactly for a seed.
func simMetrics(ops []*op) map[string]float64 {
	v := map[string]float64{}
	simSec := totalSimSec(ops)
	var hv = map[string]float64{}
	var triggers, migrAttempt, migrOK, decisions, units, tlbN, lockN, spans float64
	var tlbSum, lockSum, microSum float64
	var offered, dropped, late, goodput float64
	var cells int
	var p99s, mttrs []float64
	spanP99 := map[string][]float64{}
	var recRuns, faultRuns int
	var repairs, lost float64
	for _, o := range ops {
		c := o.sim
		if c == nil {
			continue
		}
		for k, n := range c.hv {
			hv[k] += float64(n)
		}
		triggers += float64(c.triggers)
		migrAttempt += float64(c.migrAttempt)
		migrOK += float64(c.migrOK)
		microSum += c.microAvg
		decisions += float64(c.decisions)
		units += float64(c.units)
		tlbN += float64(c.tlbN)
		tlbSum += c.tlbSum
		lockN += float64(c.lockN)
		lockSum += c.lockSum
		if rq := c.req; rq != nil {
			cells++
			offered += float64(rq.Offered)
			dropped += float64(rq.Dropped)
			late += float64(rq.Late)
			goodput += rq.GoodputRPS
			p99s = append(p99s, float64(rq.P99)/1e6)
		}
		if c.telemetry {
			spans += float64(c.spans)
			for k, p := range c.spanP99 {
				spanP99[k] = append(spanP99[k], p/1e3)
			}
		}
		if c.recovery {
			recRuns++
			repairs += float64(c.repairs)
			mttrs = append(mttrs, c.mttr.Millis())
		}
		if c.faults {
			faultRuns++
			lost += float64(c.lostIPIs)
		}
	}
	perSec := func(x float64) float64 { return x / simSec }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	for name, key := range map[string]string{
		"hv.dispatch_per_simsec":      "sched.dispatch",
		"hv.yield_per_simsec":         "yield.total",
		"hv.preempt_per_simsec":       "sched.preempt",
		"hv.steal_per_simsec":         "sched.steal",
		"hv.vipi_per_simsec":          "vipi.sent",
		"hv.virq_per_simsec":          "virq.sent",
		"hv.migrate_micro_per_simsec": "migrate.micro",
		"hv.vipi_retried_per_simsec":  "vipi.retried",
		"hv.vipi_dropped_per_simsec":  "vipi.dropped",
		"hv.vipi_lost_per_simsec":     "vipi.lost",
	} {
		v[name] = perSec(hv[key])
	}
	v["core.trigger_per_simsec"] = perSec(triggers)
	v["core.migrate_ok_ratio"] = ratio(migrOK, migrAttempt)
	v["core.micro_avg"] = ratio(microSum, float64(len(ops)))
	v["core.decisions_per_simsec"] = perSec(decisions)
	v["guest.units_per_simsec"] = perSec(units)
	v["guest.tlb_sync_mean_us"] = ratio(tlbSum, tlbN) / 1e3
	v["guest.lock_wait_mean_us"] = ratio(lockSum, lockN) / 1e3
	if cells > 0 {
		v["vnet.offered_per_simsec"] = perSec(offered)
		v["vnet.drop_pct"] = 100 * ratio(dropped, offered)
		v["vnet.late_pct"] = 100 * ratio(late, offered)
		v["goodput_rps"] = goodput / float64(cells)
		v["slo_violation_pct"] = 100 * ratio(dropped+late, offered)
		v["req_p99_ms"] = median(p99s)
	}
	v["obs.spans_per_simsec"] = perSec(spans)
	for _, k := range spanKinds {
		if len(spanP99[k]) > 0 {
			v["obs."+k+"_p99_us"] = median(spanP99[k])
		}
	}
	if recRuns > 0 {
		v["recovery.repairs_per_run"] = repairs / float64(recRuns)
		v["recovery.mttr_ms_p50"] = median(mttrs)
	}
	if faultRuns > 0 {
		v["fault.lost_ipis_end"] = lost / float64(faultRuns)
	}
	return v
}

// tracedMetrics derives the host-time side of the per-layer split.
func tracedMetrics(ops, core []*op, sp *split, setupMs []float64) map[string]float64 {
	v := map[string]float64{}
	for _, l := range layers {
		v[l+".self_pct"] = sp.pct(sp.layer[l])
	}
	for _, g := range fnGroups {
		v[g.metric] = sp.pct(sp.group[g.metric])
	}
	var events, records, allocs, scaledNs float64
	f := scales(refsOf(ops))
	for i, o := range core { // core is a prefix of ops
		events += float64(o.events)
		records += float64(o.records)
		allocs += float64(o.allocs)
		scaledNs += float64(o.wallNs) * f[i]
	}
	simSec := totalSimSec(core)
	v["simtime.events_per_simsec"] = events / simSec
	if events > 0 {
		v["simtime.ns_per_event"] = scaledNs / events
		v["runtime.allocs_per_event"] = allocs / events
	}
	v["trace.records_per_simsec"] = records / simSec
	v["experiment.setup_ms"] = median(setupMs)
	var gcs, pauseNs float64
	for _, o := range ops {
		gcs += float64(o.gcs)
		pauseNs += float64(o.gcPauseNs)
	}
	allSim := totalSimSec(ops)
	v["runtime.gc_cycles_per_simsec"] = gcs / allSim
	v["runtime.gc_pause_us_per_simsec"] = pauseNs / 1e3 / allSim
	var timedNs, tracedNs float64
	for _, o := range ops {
		if o.err == nil && o.tracedErr == nil {
			timedNs += float64(o.wallNs)
			tracedNs += float64(o.tracedNs - o.checkNs)
		}
	}
	v["trace_overhead_pct"] = 100 * (tracedNs - timedNs) / timedNs
	v["profile_samples"] = float64(sp.samples)
	return v
}

// digest hashes every deterministic field of a Result. JSON encoding
// visits map keys in sorted order; histograms, whose state is unexported,
// contribute their exact summary statistics.
func digest(res *experiment.Result) string {
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res); err != nil {
		fmt.Fprintf(h, "unencodable: %v", err)
	}
	hist := func(name string, x *metrics.Histogram) {
		if x == nil {
			return
		}
		fmt.Fprintf(h, "%s n=%d min=%d max=%d mean=%s p50=%d p99=%d p999=%d\n", name,
			x.Count(), x.Min(), x.Max(), strconv.FormatFloat(x.Mean(), 'g', -1, 64),
			x.Quantile(0.5), x.Quantile(0.99), x.Quantile(0.999))
	}
	for i := range res.VMs {
		vm := &res.VMs[i]
		hist(vm.Name+"/tlb", vm.TLB)
		keys := make([]string, 0, len(vm.LockStat))
		for k := range vm.LockStat {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			hist(vm.Name+"/lock/"+k, vm.LockStat[k])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simDigest folds the digests of ops, in order, into the workload's
// sim_digest.
func simDigest(ops []*op) string {
	h := sha256.New()
	for _, o := range ops {
		fmt.Fprintf(h, "%d %s %s\n", o.round, o.sc.cell, o.digest)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// report prints a run's human-readable lines, then the detail and result
// lines.
func (b *bench) report(res *result, det *detail, ops []*op, sim map[string]float64) {
	w := b.out
	mode := "timed"
	if b.trace {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s (%s, seed %d): %d ops over %d rounds, %d failed\n",
		b.wl.name, mode, b.seed, res.Attempted, det.Rounds, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for _, tbl := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tbl {
			if _, ok := res.Metrics[m.name]; ok {
				names = append(names, m.name)
			}
		}
	}
	for _, name := range names {
		mv := res.Metrics[name]
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", name, mv.Value, mv.Unit)
	}
	if !b.trace {
		// Unbounded context: the raw wall figure, and the spread of single
		// ops (n/10 of them lie beyond each p90), scaled and raw.
		fmt.Fprintf(w, "  %-32s %14.4f ms/simsec (raw wall time)\n", "ms_per_simsec", msPerSimsec(ops, false))
		for _, scaled := range []bool{true, false} {
			name, xs := "ms_per_simsec per op", opMsPerSimsec(ops, scaled)
			if scaled {
				name = "ref_" + name
			}
			fmt.Fprintf(w, "  %-32s p50 %.4f p90 %.4f ms/simsec (n=%d)\n", name, median(xs), percentile(xs, 90), len(xs))
		}
	}
	if !b.trace && ops[0].sc.setup.VMs[0].Serve != nil {
		for _, name := range []string{"goodput_rps", "slo_violation_pct", "req_p99_ms"} {
			m, _ := metricByName(name)
			fmt.Fprintf(w, "  %-32s %14.4f %s (modelled)\n", name, sim[name], m.unit)
		}
	}
	fmt.Fprintf(w, "  %-32s %s\n", "sim_digest", det.SimDigest)
	fmt.Fprintf(w, "  %-32s %d\n", "ops", res.Attempted)
	fmt.Fprintf(w, "  %-32s %d %v\n", "failed", res.Failed, det.Reasons)
	for _, o := range ops {
		if len(o.reasons) > 0 {
			err := o.err
			if err == nil {
				err = o.tracedErr
			}
			fmt.Fprintf(w, "  failed op: round %d %s %v: %v\n", o.round, o.sc.cell, o.reasons, err)
		}
	}
	dj, _ := json.Marshal(det)
	fmt.Fprintf(w, "detail %s\n", dj)
	rj, _ := json.Marshal(res)
	fmt.Fprintf(w, "%s\n", rj)
}
