package experiment

import (
	"runtime"
	"runtime/debug"
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
// its System.map), Algorithm 1, and the harsh-fault supervisor, which
// labels every detection and repair with a detail string.
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

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name  string
		setup Setup
	}{
		{"gmake-dynamic", corunSetup("gmake", core.DefaultConfig(), dur)},
		{"harsh-faults", harsh},
	} {
		var res *Result
		mallocs := func() uint64 {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			r, err := Run(tc.setup)
			runtime.ReadMemStats(&m1)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			res = r
			return m1.Mallocs - m0.Mallocs
		}
		mallocs() // the first run initialises package-level state
		// The runtime's own background work (the scavenger a collection
		// wakes, say) now and then adds an allocation to the window; it
		// never removes one. So one attempt in three must agree exactly,
		// while a run that depends on the pools is off on every attempt.
		for attempt := 1; ; attempt++ {
			runtime.GC()
			runtime.GC() // the second collection drops the pools' victim caches
			cold := mallocs()
			warm := mallocs()
			if cold == warm {
				break
			}
			if attempt == 3 {
				t.Errorf("%s: %d allocations after a collection, %d without one", tc.name, cold, warm)
				break
			}
		}
		if tc.setup.Recovery != nil && res.RepairCount == 0 {
			t.Errorf("%s: the supervisor recorded nothing; the case does not exercise its details", tc.name)
		}
	}
}
