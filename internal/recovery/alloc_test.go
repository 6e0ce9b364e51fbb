package recovery

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/workload"
)

// TestSupervisorAllocFree: recording a detection or a repair allocates
// nothing. A co-run loses IPIs and permanently loses a pCPU, so the
// supervisor detects and re-drives lost IPIs on every few walks. Once the
// repair ring has wrapped and the lost-IPI ledger and the episode table
// have grown, a measured window of at least 100 detections and repairs
// must allocate 0.
func TestSupervisorAllocFree(t *testing.T) {
	const (
		pcpus = 4
		dur   = 10 * simtime.Second
	)
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = pcpus
	h := hv.New(clock, cfg)
	plan, err := fault.New(fault.Config{
		Seed: 11, IPIDropProb: 0.6, LoseIPIs: true, PermanentOfflinePCPUs: 1,
	}, pcpus, dur)
	if err != nil {
		t.Fatal(err)
	}
	plan.Attach(h)
	var kernels []*guest.Kernel
	for i, app := range []string{"exim", "dedup"} {
		k := guest.NewKernel(h, app, 2, ksym.Generate(uint64(i+1)), guest.DefaultParams())
		if _, err := workload.New(app, k, uint64(i+5)); err != nil {
			t.Fatal(err)
		}
		plan.AttachGuest(k)
		kernels = append(kernels, k)
	}
	s := Attach(h, Config{Interval: 2 * simtime.Millisecond})
	h.Start()
	for _, k := range kernels {
		k.StartAll()
	}
	// The permanent unplug lands in [20%, 50%] of the run.
	clock.RunUntil(dur / 2)
	if h.OnlinePCPUs() != pcpus-1 {
		t.Fatalf("%d pCPUs online at half time, want %d after the permanent unplug", h.OnlinePCPUs(), pcpus-1)
	}
	if s.Repairs.Total() <= repairDepth {
		t.Fatalf("%d detections and repairs before the window, want the %d-entry ring wrapped", s.Repairs.Total(), repairDepth)
	}
	before := s.Repairs.Total()
	span := func() { clock.RunUntil(clock.Now() + 20*simtime.Millisecond) }
	if allocs := testing.AllocsPerRun(20, span); allocs != 0 {
		t.Errorf("%v allocs per 20 ms of supervised chaos, want 0", allocs)
	}
	if n := s.Repairs.Total() - before; n < 100 {
		t.Fatalf("%d detections and repairs in the measured window, want at least 100", n)
	}
}
