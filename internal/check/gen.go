package check

import (
	"github.com/microslicedcore/microsliced/internal/rng"
)

// genApps is the workload subset scenarios draw from: a mix of CPU-bound,
// IPI-heavy, lock-heavy, I/O-bound and disk-backed applications, all cheap
// enough that a few tens of simulated milliseconds exercise them.
var genApps = []string{
	"swaptions", "gmake", "exim", "psearchy",
	"dedup", "memclone", "lookbusy", "fileserver",
}

// Generate draws a random scenario from seed. The same seed always yields
// the same scenario, so a suite is fully described by (base seed, count).
func Generate(seed uint64) Scenario {
	r := rng.New(seed)
	sc := Scenario{Seed: seed}
	sc.PCPUs = 2 + r.Intn(5)        // 2..6
	sc.DurationMs = 10 + r.Intn(31) // 10..40 ms

	// Mode weights: 40% dynamic so the adaptive controller's decision paths
	// (probe skip, stability skip, capacity clamp) and the controller
	// conformance laws see real coverage in every suite run.
	switch r.Intn(10) {
	case 0, 1, 2:
		sc.Mode = "off"
	case 3, 4, 5:
		sc.Mode = "static"
		sc.StaticCores = 1 + r.Intn(2)
	default:
		sc.Mode = "dynamic"
	}
	sc.Stagger = r.Bool(0.5)
	sc.MicroRunqLimit = r.Intn(3) // 0 (unlimited), 1, 2
	sc.NoReturnHome = r.Bool(0.15)
	sc.BoostOff = r.Bool(0.15)

	nvms := 1 + r.Intn(3) // 1..3
	for i := 0; i < nvms; i++ {
		vm := VMSpec{
			App:   genApps[r.Intn(len(genApps))],
			VCPUs: 1 + r.Intn(4), // 1..4
			Seed:  r.Uint64(),
		}
		if r.Bool(0.3) {
			vm.Weight = 64 << r.Intn(5) // 64..1024
		}
		if r.Bool(0.25) {
			vm.Pins = make([]int, vm.VCPUs)
			for j := range vm.Pins {
				vm.Pins[j] = r.Intn(sc.PCPUs+1) - 1 // -1 (unpinned) .. PCPUs-1
			}
		}
		if r.Bool(0.3) {
			// Attach an open-loop serving workload: the request conservation
			// law then runs over this VM's pipeline. Small rings make tail
			// drops (the trickiest ledger path) common.
			vm.ServeRate = 2000 + r.Intn(8001) // 2000..10000 req/s
			vm.ServeSeed = r.Uint64()
			vm.ServeRing = 4 + r.Intn(29) // 4..32 slots
		}
		sc.VMs = append(sc.VMs, vm)
	}

	if r.Bool(0.3) {
		f := &FaultSpec{Seed: r.Uint64()}
		if r.Bool(0.4) && sc.PCPUs > 2 {
			f.OfflinePCPUs = 1 + r.Intn(sc.PCPUs-2)
		}
		if r.Bool(0.5) {
			f.IPIDelayProb = 0.05 + 0.3*r.Float64()
			f.IPIDelayMaxUs = 1 + r.Intn(50)
		}
		if r.Bool(0.4) {
			f.IPIDropProb = 0.02 + 0.2*r.Float64()
		}
		if r.Bool(0.4) {
			f.TickJitterUs = 1 + r.Intn(500)
		}
		if r.Bool(0.4) {
			f.LockStallProb = 0.02 + 0.2*r.Float64()
			f.LockStallFactor = 2 + 6*r.Float64()
		}
		sc.Faults = f
	}
	if sc.Mode == "dynamic" && r.Bool(0.4) {
		// Harsh capacity loss for dynamic scenarios: permanently offline
		// pCPUs (and optional hotplug storms) shrink the machine under the
		// controller, exercising the search-ceiling clamp and the
		// re-profile-on-capacity-change path. fault.New requires offline +
		// permanent ≤ PCPUs−1 (pCPU 0 is never unplugged).
		f := sc.Faults
		if f == nil {
			f = &FaultSpec{Seed: r.Uint64()}
			sc.Faults = f
		}
		if room := sc.PCPUs - 1 - f.OfflinePCPUs; room >= 1 {
			f.PermanentOffPCPUs = 1 + r.Intn(room)
		}
		if r.Bool(0.3) {
			f.Storms = 1 + r.Intn(3)
			f.StormLenMs = 1 + r.Intn(5)
		}
	}
	return sc
}
