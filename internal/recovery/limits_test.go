package recovery

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
	"github.com/microslicedcore/microsliced/internal/workload"
)

func TestBackoff(t *testing.T) {
	for _, tc := range []struct {
		redrives int
		want     simtime.Duration
	}{
		{0, 50 * simtime.Microsecond},
		{1, 100 * simtime.Microsecond},
		{6, 3200 * simtime.Microsecond},
		{7, 5 * simtime.Millisecond}, // 6.4 ms, clamped
		{100, 5 * simtime.Millisecond},
	} {
		if got := backoff(tc.redrives); got != tc.want {
			t.Errorf("backoff(%d) = %v, want %v", tc.redrives, got, tc.want)
		}
	}
}

// TestPoolRepairBudget unplugs a normal-pool pCPU under an oversized micro
// pool twice. The first loss and its replug spend the whole shrink+regrow
// budget; the second loss leaves the pools unbalanced, because the budget
// is gone.
func TestPoolRepairBudget(t *testing.T) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 12
	h := hv.New(clock, cfg)
	s := Attach(h, Config{})
	h.Start()
	if got := h.SetMicroCount(9); got != 9 {
		t.Fatalf("micro pool holds %d pCPUs, want 9", got)
	}
	poolRepairs := func() int {
		return int(s.hot[trace.RepairShrinkMicro].Value() + s.hot[trace.RepairRegrowMicro].Value())
	}
	walks := func() {
		for i := 0; i < 2*cfg.PCPUs; i++ {
			s.walk()
		}
	}
	victim := h.NormalPool().PCPUs()[0].ID
	for cycle := 1; cycle <= 2; cycle++ {
		if err := h.OfflinePCPU(victim); err != nil {
			t.Fatal(err)
		}
		walks()
		if cycle == 2 && h.NormalPool().Size() >= h.MicroCount() {
			t.Errorf("second loss was rebalanced (normal %d, micro %d) past the spent budget",
				h.NormalPool().Size(), h.MicroCount())
		}
		if err := h.OnlinePCPU(victim); err != nil {
			t.Fatal(err)
		}
		walks()
		if n := poolRepairs(); n > maxPoolRepairs {
			t.Fatalf("cycle %d: %d pool repairs, budget %d", cycle, n, maxPoolRepairs)
		}
	}
	if n := poolRepairs(); n != maxPoolRepairs {
		t.Errorf("%d pool repairs, want the whole budget of %d", n, maxPoolRepairs)
	}
}

// TestEpisodeRepairBudget holds a vCPU in one starvation episode whose
// repairs already reached maxEpisodeRepairs: the walk repairs it no more.
// Through the scheduler an episode ends within three repairs (a forced
// dispatch ends it), so the test spends the budget by hand.
func TestEpisodeRepairBudget(t *testing.T) {
	for _, spent := range []int{maxEpisodeRepairs - 1, maxEpisodeRepairs} {
		clock := simtime.NewClock()
		cfg := hv.DefaultConfig()
		cfg.PCPUs = 1
		h := hv.New(clock, cfg)
		var kernels []*guest.Kernel
		for i, name := range []string{"a", "b"} {
			k := guest.NewKernel(h, name, 1, ksym.Generate(uint64(i+1)), guest.DefaultParams())
			if _, err := workload.New("lookbusy", k, uint64(i+1)); err != nil {
				t.Fatal(err)
			}
			kernels = append(kernels, k)
		}
		s := Attach(h, Config{Interval: simtime.Second, StarveBound: simtime.Millisecond})
		h.Start()
		for _, k := range kernels {
			k.StartAll()
		}
		clock.RunUntil(5 * simtime.Millisecond)
		var v *hv.VCPU
		for _, c := range h.VCPUs() {
			if c.State() == hv.StateRunnable {
				v = c
			}
		}
		if v == nil {
			t.Fatal("no queued vCPU behind the running one")
		}
		s.epi = make([]episode, len(h.VCPUs()))
		s.epi[v.ID] = episode{active: true, since: v.RunnableSince(), step: 2, repairs: spent}
		s.checkStarvation(clock.Now())
		repaired := s.Repairs.Total() > 0
		if want := spent < maxEpisodeRepairs; repaired != want {
			t.Errorf("%d repairs spent: repaired=%v, want %v", spent, repaired, want)
		}
		if !repaired && (v.State() != hv.StateRunnable || !s.epi[v.ID].active) {
			t.Errorf("capped episode changed: vCPU %v, episode %+v", v.State(), s.epi[v.ID])
		}
	}
}
