package core

import (
	"bytes"
	"testing"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// ripGuest is a guest context frozen at one instruction pointer.
type ripGuest struct{ rip uint64 }

func (g *ripGuest) OnScheduled(simtime.Time)                    {}
func (g *ripGuest) OnDescheduled(simtime.Time)                  {}
func (g *ripGuest) OnInterrupt(simtime.Time, hv.Vector, uint64) {}
func (g *ripGuest) RIP() uint64                                 { return g.rip }

// yieldWorld builds a 2-pCPU host whose one micro pCPU is full (a hog
// vCPU running on it, another queued), and a 13-vCPU domain with one vCPU
// running and 12 preempted siblings parked at a mix of critical, spin-wait
// and ordinary kernel functions and user space. Nothing runs the clock, so
// every onYield call sees the same state: each sibling migration attempt
// fails on the full pool without changing it.
func yieldWorld(t *testing.T, yielderFn string) (*Controller, *hv.Hypervisor, *hv.VCPU) {
	t.Helper()
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 2
	h := hv.New(clock, cfg)
	tab := ksym.Generate(1)
	var sm bytes.Buffer
	if err := tab.Format(&sm); err != nil {
		t.Fatal(err)
	}
	vm := h.NewDomain("vm", sm.Bytes())
	hog := h.NewDomain("hog", sm.Bytes())
	fns := []string{"get_page_from_freelist", "vfs_read", "_raw_spin_lock", "flush_tlb_func",
		"__raw_spin_unlock", "schedule", "irq_exit", "default_idle", "scheduler_ipi", "do_fork", "rwsem_wake"}
	var vcpus []*hv.VCPU
	for i := 0; i < 13; i++ {
		rip := ksym.UserRIP
		switch {
		case i == 0:
			rip = tab.InnerAddr(yielderFn)
		case i <= len(fns):
			rip = tab.InnerAddr(fns[i-1])
		}
		vcpus = append(vcpus, h.AddVCPU(vm, &ripGuest{rip: rip}))
	}
	hogs := []*hv.VCPU{h.AddVCPU(hog, &ripGuest{}), h.AddVCPU(hog, &ripGuest{})}
	c, err := Attach(h, StaticConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	h.Start()
	c.Start()
	for _, v := range hogs {
		if !h.MigrateToMicro(v) {
			t.Fatal("could not fill the micro pool")
		}
	}
	for _, v := range vcpus {
		h.Wake(v, false)
	}
	if vcpus[0].State() != hv.StateRunning {
		t.Fatalf("yielder is %v, want running", vcpus[0].State())
	}
	for _, w := range vcpus[1:] {
		if w.State() != hv.StateRunnable || w.OnMicro() {
			t.Fatalf("sibling %v is %v, want preempted in the normal pool", w, w.State())
		}
	}
	return c, h, vcpus[0]
}

// TestOnYieldAllocFree: classifying a PLE or IPI-wait yield and its 12
// preempted siblings, counting the hits and attempting the migrations
// allocates nothing in steady state.
func TestOnYieldAllocFree(t *testing.T) {
	for _, tc := range []struct {
		reason    hv.YieldReason
		yielderFn string
	}{
		{hv.YieldPLE, "_raw_spin_lock"},
		{hv.YieldIPIWait, "smp_call_function_many"},
	} {
		c, h, v := yieldWorld(t, tc.yielderFn)
		yield := func() { c.onYield(v, tc.reason) }
		yield() // first micro_full creates its counter
		if allocs := testing.AllocsPerRun(1000, yield); allocs != 0 {
			t.Errorf("%v: %v allocs per onYield, want 0", tc.reason, allocs)
		}
		attempts := c.Counters.Value("migrate.attempt")
		if attempts == 0 || h.Counters.Value("migrate.micro_full") != attempts || c.Counters.Value("migrate.ok") != 0 {
			t.Fatalf("%v: %d attempts, %d micro_full, %d ok: want every attempt to hit the full pool",
				tc.reason, attempts, h.Counters.Value("migrate.micro_full"), c.Counters.Value("migrate.ok"))
		}
		hits := c.SymbolHits()
		if hits[tc.yielderFn] == 0 || hits["get_page_from_freelist"] == 0 || hits["vfs_read"] != 0 {
			t.Fatalf("%v: symbol hits %v", tc.reason, hits)
		}
	}
}
