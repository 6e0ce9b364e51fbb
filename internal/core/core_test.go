package core

import (
	"fmt"
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

type loopProg struct{ op guest.Op }

func (p *loopProg) Next(now simtime.Time, op *guest.Op) { *op = p.op }

// lockProg alternates a user-compute burst with a short critical section —
// the gmake/exim kernel-interaction shape. The lock is shared between two
// threads so contention is real but the lock is not the saturation point;
// throughput losses then come from holder/waiter preemption, not queueing.
type lockProg struct {
	l     *guest.SpinLock
	burst simtime.Duration
	i     int
}

func (p *lockProg) Next(now simtime.Time, op *guest.Op) {
	p.i++
	if p.i%2 == 1 {
		*op = guest.Op{Kind: guest.OpCompute, Dur: p.burst}
		return
	}
	*op = guest.Op{Kind: guest.OpLock, Lock: p.l, Dur: 2 * simtime.Microsecond}
}

// lockScenario builds the paper's LHP shape: a lock-intensive VM co-running
// with a CPU-hog VM at 2:1 overcommit. Hogs start staggered so scheduling
// phases drift.
func lockScenario(pcpus, vcpus int) (*simtime.Clock, *hv.Hypervisor, *guest.Kernel, *guest.SpinLock) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = pcpus
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "locky", vcpus, ksym.Generate(1), guest.DefaultParams())
	hog := guest.NewKernel(h, "hog", vcpus, ksym.Generate(2), guest.DefaultParams())
	var locks []*guest.SpinLock
	nlocks := (vcpus + 3) / 4
	for i := 0; i < nlocks; i++ {
		locks = append(locks, k.Lock(fmt.Sprintf("zone%d", i), "Page allocator", "get_page_from_freelist"))
	}
	for i := 0; i < vcpus; i++ {
		k.NewThread(i, "locker", &lockProg{
			l:     locks[i%nlocks],
			burst: simtime.Duration(10+i) * simtime.Microsecond,
		})
		hog.NewThread(i, "hog", &hogProg{burst: simtime.Duration(4+i) * simtime.Millisecond})
	}
	for i, vc := range hog.VCPUs {
		hvv := vc.HV()
		clock.At(simtime.Time(1+7*i)*simtime.Millisecond, func() { h.Wake(hvv, false) })
	}
	return clock, h, k, locks[0]
}

func startAllKernels(h *hv.Hypervisor, ks ...*guest.Kernel) {
	h.Start()
	for _, k := range ks {
		k.StartAll()
	}
}

func runLockScenario(t *testing.T, cfg Config, dur simtime.Duration) (uint64, *Controller, *hv.Hypervisor) {
	t.Helper()
	clock, h, k, _ := lockScenario(12, 12)
	c, err := Attach(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	k.StartAll() // hog vCPUs wake on their staggered timers
	clock.RunUntil(dur)
	var ops uint64
	for _, th := range k.Threads() {
		ops += th.OpsDone
	}
	return ops, c, h
}

func TestAttachRequiresSymbolMap(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	h.NewDomain("bare", nil)
	if _, err := Attach(h, DefaultConfig()); err == nil {
		t.Fatal("Attach accepted a domain without System.map")
	}
}

func TestAttachParsesGarbageSymbolMap(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	h.NewDomain("bad", []byte("not a symbol table"))
	if _, err := Attach(h, DefaultConfig()); err == nil {
		t.Fatal("Attach accepted a garbage System.map")
	}
}

func TestModeOffInstallsNoHooks(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	cfg := DefaultConfig()
	cfg.Mode = ModeOff
	if _, err := Attach(h, cfg); err != nil {
		t.Fatal(err)
	}
	if h.Hooks.OnYield != nil || h.Hooks.OnVIRQRelay != nil || h.Hooks.OnVIPIRelay != nil {
		t.Fatal("ModeOff installed hooks")
	}
}

func TestStaticModeSizesPool(t *testing.T) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 4
	h := hv.New(clock, cfg)
	c, err := Attach(h, StaticConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	if c.h.MicroCount() != 2 {
		t.Fatalf("micro count %d, want 2", c.h.MicroCount())
	}
}

func TestLockHolderAcceleration(t *testing.T) {
	// Baseline (no mechanism) vs one static micro core on the LHP-heavy
	// scenario: throughput (lock acquisitions) must improve markedly.
	off := StaticConfig(0)
	off.Mode = ModeOff
	base, _, hBase := runLockScenario(t, off, 2*simtime.Second)
	accel, c, hAccel := runLockScenario(t, StaticConfig(1), 2*simtime.Second)
	if c.Counters.Value("migrate.ok") == 0 {
		t.Fatal("no successful migrations")
	}
	if accel <= base {
		t.Fatalf("acceleration did not help: baseline %d vs accelerated %d locker ops", base, accel)
	}
	if hAccel.Counters.Value("yield.ple")*3 >= hBase.Counters.Value("yield.ple") {
		t.Fatalf("PLE yields did not drop: %d -> %d",
			hBase.Counters.Value("yield.ple"), hAccel.Counters.Value("yield.ple"))
	}
}

func TestSymbolHitsRecorded(t *testing.T) {
	_, c, _ := runLockScenario(t, StaticConfig(1), simtime.Second)
	hits := c.SymbolHits()
	if len(hits) == 0 {
		t.Fatal("no symbol hits recorded")
	}
	found := false
	for name := range hits {
		if name == "get_page_from_freelist" {
			found = true
		}
		if ksym.Classify(name) == ksym.ClassNone {
			t.Fatalf("non-critical symbol %q recorded", name)
		}
	}
	if !found {
		t.Fatalf("critical-section symbol missing from hits: %v", hits)
	}
}

// tlbScenario: a dedup-like VM whose threads flush TLBs constantly,
// co-running with a hog VM. Hog threads compute in long bursts with short
// sleeps and start staggered, so the two VMs' scheduling phases drift the
// way real co-runners do instead of ticking in lockstep.
func tlbScenario(pcpus, vcpus int) (*simtime.Clock, *hv.Hypervisor, *guest.Kernel) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = pcpus
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "dedup", vcpus, ksym.Generate(1), guest.DefaultParams())
	hog := guest.NewKernel(h, "hog", vcpus, ksym.Generate(2), guest.DefaultParams())
	for i := 0; i < vcpus; i++ {
		k.NewThread(i, "flusher", &tlbProg{burst: simtime.Duration(150+13*i) * simtime.Microsecond})
		hog.NewThread(i, "hog", &hogProg{burst: simtime.Duration(4+i) * simtime.Millisecond})
	}
	for i, vc := range hog.VCPUs {
		hvv := vc.HV()
		clock.At(simtime.Time(1+7*i)*simtime.Millisecond, func() { h.Wake(hvv, false) })
	}
	return clock, h, k
}

// tlbProg alternates compute and TLB flushes (mmap/munmap shape).
type tlbProg struct {
	i     int
	burst simtime.Duration
}

func (p *tlbProg) Next(now simtime.Time, op *guest.Op) {
	p.i++
	if p.i%2 == 1 {
		*op = guest.Op{Kind: guest.OpCompute, Dur: p.burst}
		return
	}
	*op = guest.Op{Kind: guest.OpTLBFlush}
}

// hogProg computes in long bursts with a short sleep in between, keeping
// co-runner scheduling phases drifting.
type hogProg struct {
	i     int
	burst simtime.Duration
}

func (p *hogProg) Next(now simtime.Time, op *guest.Op) {
	p.i++
	if p.i%8 == 0 {
		*op = guest.Op{Kind: guest.OpSleep, Dur: 200 * simtime.Microsecond}
		return
	}
	*op = guest.Op{Kind: guest.OpCompute, Dur: p.burst}
}

func runTLB(t *testing.T, cfg Config, dur simtime.Duration) (float64, uint64, *Controller) {
	t.Helper()
	clock, h, k := tlbScenario(12, 12)
	c, err := Attach(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	k.StartAll() // hog vCPUs wake on their staggered timers
	clock.RunUntil(dur)
	return k.TLBStat.Mean(), k.TLBStat.Count(), c
}

func TestTLBShootdownAcceleration(t *testing.T) {
	off := DefaultConfig()
	off.Mode = ModeOff
	baseMean, baseCount, _ := runTLB(t, off, 2*simtime.Second)
	accMean, accCount, c := runTLB(t, StaticConfig(3), 2*simtime.Second)
	if c.Counters.Value("migrate.ok") == 0 {
		t.Fatal("no migrations for TLB case")
	}
	if accMean >= baseMean {
		t.Fatalf("TLB latency did not improve: %.0fns -> %.0fns", baseMean, accMean)
	}
	if accCount <= baseCount {
		t.Fatalf("shootdown throughput did not improve: %d -> %d", baseCount, accCount)
	}
}

func TestAdaptiveSettlesOnSingleCoreForPLE(t *testing.T) {
	clock, h, _, l := lockScenario(12, 12)
	cfg := DefaultConfig()
	c, err := Attach(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	for _, vc := range h.VCPUs() {
		h.Wake(vc, false)
	}
	clock.RunUntil(2 * simtime.Second)
	if c.Counters.Value("adaptive.single") == 0 {
		t.Fatalf("PLE-dominant load never took the single-core fast path: %s", c.Counters)
	}
	if l.Acquisitions == 0 {
		t.Fatal("no lock progress")
	}
	// Time-averaged pool size should be around 1; profiling phases and
	// epochs that genuinely saw no urgent events dip to 0.
	avg := c.MicroGauge.TimeAverage(int64(clock.Now()))
	if avg < 0.3 || avg > 1.7 {
		t.Fatalf("average micro cores %.2f, want ~1", avg)
	}
}

func TestAdaptiveStaysAtZeroWhenIdle(t *testing.T) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 4
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "calm", 2, ksym.Generate(1), guest.DefaultParams())
	for i := 0; i < 2; i++ {
		k.NewThread(i, "user", &loopProg{op: guest.Op{
			Kind: guest.OpCompute, Dur: simtime.Millisecond,
		}})
	}
	c, err := Attach(h, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	startAllKernels(h, k)
	c.Start()
	clock.RunUntil(3 * simtime.Second)
	if c.h.MicroCount() != 0 {
		t.Fatalf("idle system has %d micro cores", c.h.MicroCount())
	}
	if c.Counters.Value("adaptive.idle") == 0 {
		t.Fatal("idle path never taken")
	}
}

func TestAdaptiveIPISearchPicksBest(t *testing.T) {
	clock, h, k := tlbScenario(6, 6)
	cfg := DefaultConfig()
	cfg.MaxMicroCores = 3
	c, err := Attach(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	k.StartAll()
	clock.RunUntil(3 * simtime.Second)
	if c.Counters.Value("adaptive.best_pick") == 0 {
		t.Fatalf("IPI-dominant load never completed the search: %s", c.Counters)
	}
	if c.h.MicroCount() < 1 || c.h.MicroCount() > 3 {
		t.Fatalf("settled at %d micro cores", c.h.MicroCount())
	}
}

func TestPreciseSelectionReducesMigrations(t *testing.T) {
	run := func(precise bool) uint64 {
		clock, h, _, _ := lockScenario(12, 12)
		cfg := StaticConfig(1)
		cfg.PreciseSelection = precise
		c, err := Attach(h, cfg)
		if err != nil {
			t.Fatal(err)
		}
		h.Start()
		c.Start()
		for _, vc := range h.VCPUs() {
			h.Wake(vc, false)
		}
		clock.RunUntil(simtime.Second)
		return c.Counters.Value("migrate.attempt")
	}
	precise := run(true)
	imprecise := run(false)
	if precise == 0 {
		t.Fatal("precise mode made no attempts")
	}
	if imprecise <= precise {
		t.Fatalf("imprecise selection should attempt more migrations: %d vs %d", precise, imprecise)
	}
}

func TestStartTwicePanics(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	c, err := Attach(h, StaticConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	defer func() {
		if recover() == nil {
			t.Fatal("second Start did not panic")
		}
	}()
	c.Start()
}

func TestModeString(t *testing.T) {
	for _, m := range []Mode{ModeOff, ModeStatic, ModeDynamic, Mode(9)} {
		if m.String() == "" {
			t.Fatal("empty mode string")
		}
	}
}

// counterWorld builds a guest-free world whose urgent-event counters are
// driven by hand: tests script one profiling sample per timer window by
// bumping the hypervisor counters the controller snapshots, making every
// Algorithm 1 branch reachable deterministically.
func counterWorld(t *testing.T, pcpus int, cfg Config) (*simtime.Clock, *hv.Hypervisor, *Controller) {
	t.Helper()
	clock := simtime.NewClock()
	hcfg := hv.DefaultConfig()
	hcfg.PCPUs = pcpus
	h := hv.New(clock, hcfg)
	c, err := Attach(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	return clock, h, c
}

func bump(h *hv.Hypervisor, name string, n uint64) {
	c := h.Counters.Counter(name)
	for ; n > 0; n-- {
		c.Inc()
	}
}

func lastDecision(t *testing.T, c *Controller) trace.Decision {
	t.Helper()
	decs := c.Decisions.All()
	if len(decs) == 0 {
		t.Fatal("no decisions recorded")
	}
	return decs[len(decs)-1]
}

// TestPLEDominantEarlyTerminates is the regression for the dominance
// misclassification: with ples=100, ipis=40, irqs=0 the phase is
// PLE-dominant, but the old `ipis > ples || ipis > irqs` test saw
// 40 > 0 and entered the multi-epoch iterative search. It must
// early-terminate at one core via the single-core fast path.
func TestPLEDominantEarlyTerminates(t *testing.T) {
	clock, h, c := counterWorld(t, 6, DefaultConfig())
	bump(h, "yield.ple", 100)
	bump(h, "yield.ipi", 40)
	clock.RunUntil(11 * simtime.Millisecond)
	if got := c.Counters.Value("adaptive.ipi_search"); got != 0 {
		t.Fatalf("PLE-dominant phase entered the IPI search %d times", got)
	}
	if got := c.Counters.Value("adaptive.single"); got != 1 {
		t.Fatalf("adaptive.single = %d, want 1", got)
	}
	if h.MicroCount() != 1 {
		t.Fatalf("micro count %d, want 1", h.MicroCount())
	}
	if d := lastDecision(t, c); d.Reason != trace.DecisionSingle || d.Chosen != 1 {
		t.Fatalf("decision %s→%d, want single→1", d.Reason, d.Chosen)
	}
}

// TestMicroGaugeSeededAtStart is the regression for the MicroAvg
// accounting gap: a dynamic run shorter than one profile interval used to
// report 0 because Start never seeded the gauge with the live pool size.
func TestMicroGaugeSeededAtStart(t *testing.T) {
	clock := simtime.NewClock()
	hcfg := hv.DefaultConfig()
	hcfg.PCPUs = 4
	h := hv.New(clock, hcfg)
	c, err := Attach(h, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	h.SetMicroCount(1) // the pool exists before the controller starts
	c.Start()
	clock.RunUntil(5 * simtime.Millisecond) // shorter than ProfileInterval
	if avg := c.MicroGauge.TimeAverage(int64(clock.Now())); avg != 1.0 {
		t.Fatalf("MicroAvg %v over a 5 ms run with a 1-core pool, want 1.0", avg)
	}
}

// TestFindBestMicroCountTable drives the search arithmetic directly: the
// minimum-urgent-event size must win, ties must prefer the smaller pool,
// and the live ceiling must exclude sizes beyond it.
func TestFindBestMicroCountTable(t *testing.T) {
	cases := []struct {
		name   string
		totals []uint64 // urgent events per size 1..len
		ceil   int
		want   int
	}{
		{"min in the middle", []uint64{50, 10, 30}, 3, 2},
		{"min at the top", []uint64{50, 30, 10}, 3, 3},
		{"tie prefers smaller", []uint64{20, 20, 40}, 3, 1},
		{"all equal prefers one", []uint64{15, 15, 15}, 3, 1},
		{"ceiling excludes stale min", []uint64{50, 30, 10}, 2, 2},
	}
	for _, tc := range cases {
		c := &Controller{
			cfg:        Config{MaxMicroCores: len(tc.totals)},
			urEvents:   make([]trace.Sample, len(tc.totals)+1),
			searchCeil: tc.ceil,
		}
		for i, tot := range tc.totals {
			c.urEvents[i+1] = trace.Sample{IPIs: tot}
		}
		if got := c.findBestMicroCount(); got != tc.want {
			t.Errorf("%s: picked %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestAdaptiveSearchWalksAllSizes scripts a full iterative search end to
// end: the controller must profile sizes 1..max in successive windows and
// settle on the size whose window saw the fewest urgent events.
func TestAdaptiveSearchWalksAllSizes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMicroCores = 3
	clock, h, c := counterWorld(t, 6, cfg)
	bump(h, "yield.ipi", 100) // busy, IPI-dominant run phase → search
	clock.RunUntil(10 * simtime.Millisecond)
	// One scripted sample per search window: sizes 1, 2, 3 see 50, 10, 30.
	for _, n := range []uint64{50, 10, 30} {
		bump(h, "yield.ipi", n)
		clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
	}
	if got := c.Counters.Value("adaptive.best_pick"); got != 1 {
		t.Fatalf("adaptive.best_pick = %d, want 1 (counters: %s)", got, c.Counters)
	}
	if h.MicroCount() != 2 {
		t.Fatalf("settled on %d micro cores, want 2 (the minimum-event size)", h.MicroCount())
	}
	d := lastDecision(t, c)
	if d.Reason != trace.DecisionBestPick || d.Chosen != 2 || d.Ceiling != 3 {
		t.Fatalf("decision %s→%d (ceiling %d), want best-pick→2 (ceiling 3)", d.Reason, d.Chosen, d.Ceiling)
	}
	if len(d.Probes) != 4 || d.Probes[2].IPIs != 10 {
		t.Fatalf("decision probes %+v, want 4 samples with Probes[2].IPIs=10", d.Probes)
	}
}

// TestCapacityClampAfterHotplug: hot-unplugging pCPUs mid-run must
// immediately re-profile under a clamped ceiling, discard the stale sample
// history (the old winner no longer exists), and record the clamp.
func TestCapacityClampAfterHotplug(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMicroCores = 3
	clock, h, c := counterWorld(t, 5, cfg)
	// First search: size 3 wins (samples 50, 30, 10 for sizes 1, 2, 3).
	bump(h, "yield.ipi", 100)
	clock.RunUntil(10 * simtime.Millisecond)
	for _, n := range []uint64{50, 30, 10} {
		bump(h, "yield.ipi", n)
		clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
	}
	if h.MicroCount() != 3 {
		t.Fatalf("first search settled on %d micro cores, want 3", h.MicroCount())
	}
	// Capacity loss: two pCPUs die. Online drops to 3, so at most 2 cores
	// can be micro-sliced; the stale size-3 sample (the old minimum) must
	// not drive the next pick.
	if err := h.OfflinePCPU(4); err != nil {
		t.Fatal(err)
	}
	if err := h.OfflinePCPU(3); err != nil {
		t.Fatal(err)
	}
	if got := c.Counters.Value("adaptive.reprofile"); got != 2 {
		t.Fatalf("adaptive.reprofile = %d, want 2 (one per hotplug)", got)
	}
	// The immediate re-profile round: busy run delta → clamped search.
	bump(h, "yield.ipi", 100)
	clock.RunUntil(clock.Now() + simtime.Millisecond)
	for _, n := range []uint64{40, 20} {
		bump(h, "yield.ipi", n)
		clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
	}
	if h.MicroCount() != 2 {
		t.Fatalf("clamped search settled on %d micro cores, want 2", h.MicroCount())
	}
	d := lastDecision(t, c)
	if d.Reason != trace.DecisionCapacityClamp || d.Chosen != 2 || d.Ceiling != 2 {
		t.Fatalf("decision %s→%d (ceiling %d), want capacity-clamp→2 (ceiling 2)", d.Reason, d.Chosen, d.Ceiling)
	}
	if c.Counters.Value("adaptive.capacity_clamp") == 0 {
		t.Fatal("capacity clamp never counted")
	}
}

// TestZeroProbeSkippedWhenBusy: under sustained load the controller must
// not strip all acceleration for a 10 ms probe at every epoch boundary.
func TestZeroProbeSkippedWhenBusy(t *testing.T) {
	clock, h, c := counterWorld(t, 4, DefaultConfig())
	bump(h, "yield.ple", 50)
	clock.RunUntil(11 * simtime.Millisecond)
	if h.MicroCount() != 1 {
		t.Fatalf("busy epoch settled on %d micro cores, want 1", h.MicroCount())
	}
	bump(h, "yield.ple", 50)
	// Just past the second epoch boundary (10 ms + 1000 ms): the old
	// controller would be mid-probe at zero cores here.
	clock.RunUntil(1012 * simtime.Millisecond)
	if h.MicroCount() != 1 {
		t.Fatalf("pool stripped to %d cores at the epoch boundary, want 1 (probe skipped)", h.MicroCount())
	}
	if got := c.Counters.Value("adaptive.probe_skip"); got != 2 {
		t.Fatalf("adaptive.probe_skip = %d, want 2", got)
	}
}

// TestStabilitySkipAfterStableEpochs: once the search winner repeats for
// StabilityEpochs consecutive epochs, the next busy IPI-dominant epoch
// must reinstate it directly instead of re-running the search.
func TestStabilitySkipAfterStableEpochs(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxMicroCores = 2
	cfg.StabilityEpochs = 2
	clock, h, c := counterWorld(t, 6, cfg)
	// Two full searches, both won by size 1 (equal samples tie-break down).
	for epoch := 0; epoch < 2; epoch++ {
		bump(h, "yield.ipi", 100)
		clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
		for _, n := range []uint64{50, 50} {
			bump(h, "yield.ipi", n)
			clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
		}
		// Skip ahead to just before the next epoch boundary.
		clock.RunUntil(clock.Now() + 999*simtime.Millisecond)
	}
	if got := c.Counters.Value("adaptive.ipi_search"); got != 2 {
		t.Fatalf("adaptive.ipi_search = %d, want 2", got)
	}
	// Third busy epoch: the streak (2) has reached StabilityEpochs.
	bump(h, "yield.ipi", 100)
	clock.RunUntil(clock.Now() + 11*simtime.Millisecond)
	if got := c.Counters.Value("adaptive.stability_skip"); got != 1 {
		t.Fatalf("adaptive.stability_skip = %d, want 1 (counters: %s)", got, c.Counters)
	}
	if got := c.Counters.Value("adaptive.ipi_search"); got != 2 {
		t.Fatalf("search re-ran despite a stable winner: adaptive.ipi_search = %d", got)
	}
	if h.MicroCount() != 1 {
		t.Fatalf("stability skip installed %d micro cores, want 1", h.MicroCount())
	}
	if d := lastDecision(t, c); d.Reason != trace.DecisionStabilitySkip {
		t.Fatalf("decision reason %s, want stability-skip", d.Reason)
	}
}

// TestDecisionRingBounded: the audit ring retains the newest DecisionDepth
// entries oldest-first while the exact total keeps counting.
func TestDecisionRingBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProfileInterval = simtime.Millisecond
	cfg.EpochInterval = 2 * simtime.Millisecond
	cfg.DecisionDepth = 4
	clock, _, c := counterWorld(t, 4, cfg)
	clock.RunUntil(50 * simtime.Millisecond) // idle: one decision per 3 ms round
	total := c.Decisions.Total()
	if total <= 4 {
		t.Fatalf("only %d decisions in 50 ms, want > 4", total)
	}
	decs := c.Decisions.All()
	if len(decs) != 4 {
		t.Fatalf("ring holds %d entries, want 4", len(decs))
	}
	for i := 1; i < len(decs); i++ {
		if decs[i].Time <= decs[i-1].Time || decs[i].Epoch <= decs[i-1].Epoch {
			t.Fatalf("ring not oldest-first: %+v", decs)
		}
	}
	if decs[len(decs)-1].Epoch != total {
		t.Fatalf("newest entry epoch %d, want %d (one idle decision per round)",
			decs[len(decs)-1].Epoch, total)
	}
}
