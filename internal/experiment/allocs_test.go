package experiment

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/recovery"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestRunAllocationsIndependentOfGC: a run allocates the same number of
// objects whether the process's sync.Pools are empty or warm. fmt keeps its
// printers in a sync.Pool that garbage collection empties, so a run that
// formats with fmt allocates more right after a collection, and an
// allocation count taken around Run would follow the collector's timing
// rather than the scenario. The cases cover set-up (every kernel formats
// its System.map), Algorithm 1, and a harsh-fault run with the supervisor,
// the auditor and the observer on, where the auditor formats each
// violation's detail with fmt.
//
// Three other things move an allocation count between identical runs, and
// the test shuts each out, so every run is counted exactly once:
//   - A collection wakes the runtime's background scavenger, which re-arms
//     its timer and can grow a timer heap inside the next run. So the
//     count is simAllocs, not MemStats.Mallocs.
//   - The allocation profile counts a tiny allocation (pointer-free, under
//     16 bytes) only when it opens a new 16-byte block, so the count
//     depends on the block a run starts in. ReadMemStats before each run
//     flushes the allocation caches, so no run starts in one.
//   - A run that moves to another P opens a new block there, so the test
//     runs on one P.
func TestRunAllocationsIndependentOfGC(t *testing.T) {
	const dur = 200 * simtime.Millisecond
	harsh := corunSetup("dedup", core.StaticConfig(2), dur)
	for i := range harsh.VMs {
		harsh.VMs[i].VCPUs = 4
	}
	harsh.Faults = &fault.Config{
		Seed: 1, PermanentOfflinePCPUs: 2, Storms: 2,
		IPIDropProb: 0.15, LoseIPIs: true,
		LockStallProb: 0.05, LockStallFactor: 4,
		QuiesceAt: dur / 5,
	}
	harsh.Recovery = &recovery.Config{Interval: 2 * simtime.Millisecond, StarveBound: dur/5 + dur/100}
	harsh.Audit = true
	harsh.Obs = &obs.Config{}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1 // profile every allocation
	for _, tc := range []struct {
		name  string
		setup Setup
	}{
		{"gmake-dynamic", corunSetup("gmake", core.DefaultConfig(), dur)},
		{"harsh-faults", harsh},
	} {
		var res *Result
		var ms runtime.MemStats
		run := func() {
			runtime.ReadMemStats(&ms)
			r, err := Run(tc.setup)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			res = r
		}
		// settled empties the pools (the second collection drops their
		// victim caches) and reads the profile, which a collection
		// publishes.
		settled := func() int64 {
			runtime.GC()
			runtime.GC()
			return simAllocs(t)
		}
		run() // the first run initialises package-level state
		before := settled()
		run()
		afterCold := settled()
		run()
		run()
		afterPair := settled()
		// The second pair's first run is cold again, so its second run,
		// the warm one, allocated (afterPair-afterCold) - cold.
		cold := afterCold - before
		warm := afterPair - afterCold - cold
		if cold != warm {
			t.Errorf("%s: %d allocations after a collection, %d without one", tc.name, cold, warm)
		}
		if tc.setup.Recovery != nil && res.RepairCount == 0 {
			t.Errorf("%s: the supervisor recorded nothing; the case does not exercise its details", tc.name)
		}
	}
}

// simAllocs returns how many objects this module's non-test code has
// allocated, as of the last collection: the allocation profile's objects
// whose stack runs through such a function. The runtime's own background
// goroutines never do, and neither does the test's bookkeeping.
func simAllocs(t *testing.T) int64 {
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		t.Fatal("allocation profile grew past its buffer")
	}
	var total int64
	for _, r := range recs[:n] {
		frames := runtime.CallersFrames(r.Stack())
		for more := true; more; {
			var f runtime.Frame
			f, more = frames.Next()
			if strings.HasPrefix(f.Function, "github.com/microslicedcore/microsliced/") && !strings.HasSuffix(f.File, "_test.go") {
				total += r.AllocObjects
				break
			}
		}
	}
	return total
}

// TestServeCellAllocFree: once a serving cell has run a simulated second,
// running it further allocates nothing. Each packet crosses the whole
// interrupt path, pIRQ → hypervisor → vIRQ → guest softirq → socket →
// server thread, so a per-packet allocation anywhere on it shows as about
// a hundred per 10 ms run. The cells cover the plain credit scheduler
// with the host's own co-runner, and Algorithm 1 against swaptions at the
// rate where its micro pool works hardest.
func TestServeCellAllocFree(t *testing.T) {
	for _, tc := range []struct {
		cfg   int // index into serveConfigs
		rate  int
		corun string
	}{
		{0, 3000, "lookbusy"},
		{3, 9000, "swaptions"},
	} {
		name := fmt.Sprintf("%s/%s/%d", serveConfigs[tc.cfg].name, tc.corun, tc.rate)
		s := serveSetup(tc.cfg, tc.rate, tc.corun, simtime.Second)
		allocs := -1.0
		s.PostCheck = func(pr *PostRun) error {
			c := pr.HV.Clock
			allocs = testing.AllocsPerRun(50, func() { c.RunUntil(c.Now() + 10*simtime.Millisecond) })
			return nil
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.VM("serve").Requests.Completed == 0 {
			t.Fatalf("%s: no request completed; the cell does not exercise the path", name)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocs per 10 ms of simulated time, want 0", name, allocs)
		}
	}
}
