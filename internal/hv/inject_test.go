package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// pingGuest counts the interrupts injected into it and, while rounds
// remain, answers each with an IPI back to its peer from inside
// OnInterrupt, re-entering deliver while the previous injection is still
// unwinding.
type pingGuest struct {
	h      *Hypervisor
	v      *VCPU
	peer   *pingGuest
	got    int
	rounds *int
}

func (g *pingGuest) OnScheduled(simtime.Time)   {}
func (g *pingGuest) OnDescheduled(simtime.Time) {}
func (g *pingGuest) RIP() uint64                { return 0x400000 }
func (g *pingGuest) OnInterrupt(now simtime.Time, vec Vector, data uint64) {
	g.got++
	if *g.rounds > 0 {
		*g.rounds--
		g.h.SendVIPI(g.v, g.peer.v, VecCallFunc, data+1)
	}
}

// pingWorld runs two vCPUs of one domain on two pCPUs, both past their
// dispatch warm-up, so every IPI between them takes the running-target
// injection path.
func pingWorld(t *testing.T, rounds *int) (*simtime.Clock, *Hypervisor, *pingGuest, *pingGuest) {
	t.Helper()
	clock, h := setup(2)
	d := h.NewDomain("vm", nil)
	a, b := &pingGuest{h: h, rounds: rounds}, &pingGuest{h: h, rounds: rounds}
	a.peer, b.peer = b, a
	a.v, b.v = h.AddVCPU(d, a), h.AddVCPU(d, b)
	h.Start()
	h.Wake(a.v, false)
	h.Wake(b.v, false)
	clock.RunUntil(clock.Now() + simtime.Millisecond)
	if a.v.State() != StateRunning || b.v.State() != StateRunning {
		t.Fatalf("vCPUs %v and %v, want both running", a.v.State(), b.v.State())
	}
	return clock, h, a, b
}

// TestIPIInjectAllocFree: an IPI to a running vCPU, from the send through
// the injection latency to OnInterrupt, allocates nothing in steady state.
func TestIPIInjectAllocFree(t *testing.T) {
	rounds := 0
	clock, h, a, b := pingWorld(t, &rounds)
	send := func() {
		h.SendVIPI(a.v, b.v, VecCallFunc, 0)
		clock.RunUntil(clock.Now() + simtime.Microsecond)
	}
	send() // allocates the first free-list record
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("%v allocs per delivered IPI, want 0", allocs)
	}
	if b.got != 1002 {
		t.Fatalf("%d IPIs injected, want 1002", b.got)
	}
}

// TestIPIInjectReentrant: an IPI sent from inside OnInterrupt reuses the
// record the injection just freed; every hop must still reach the right
// vCPU.
func TestIPIInjectReentrant(t *testing.T) {
	rounds := 99
	clock, h, a, b := pingWorld(t, &rounds)
	start := clock.Now()
	h.SendVIPI(a.v, b.v, VecCallFunc, 0)
	clock.RunUntil(start + simtime.Millisecond)
	if a.got != 50 || b.got != 50 {
		t.Fatalf("a got %d, b got %d IPIs, want 50 each", a.got, b.got)
	}
	if f := h.freeIRQ[irqInject]; f == nil || f.next != nil {
		t.Fatal("ping-pong used more than one injection record")
	}
	if v := h.Counters.Value("vipi.sent"); v != 100 {
		t.Fatalf("vipi.sent = %d, want 100", v)
	}
}

// TestPIRQAllocFree: a device interrupt, through the hypervisor's handling
// cost, the vIRQ relay and the injection latency to OnInterrupt, allocates
// nothing in steady state, whether routed to the domain's IRQ vCPU
// (InjectPIRQ) or to a given vCPU (InjectPIRQTo).
func TestPIRQAllocFree(t *testing.T) {
	rounds := 0
	clock, h, a, b := pingWorld(t, &rounds)
	irq := func() {
		h.InjectPIRQ(a.v.Dom, VecNet, 0)
		h.InjectPIRQTo(b.v, VecNet, 0)
		clock.RunUntil(clock.Now() + 2*simtime.Microsecond)
	}
	irq() // allocates the first free-list records
	if allocs := testing.AllocsPerRun(1000, irq); allocs != 0 {
		t.Errorf("%v allocs per pair of device interrupts, want 0", allocs)
	}
	if a.got != 1002 || b.got != 1002 {
		t.Fatalf("a got %d, b got %d interrupts, want 1002 each", a.got, b.got)
	}
	if v := h.Counters.Value("virq.sent"); v != 2004 {
		t.Fatalf("virq.sent = %d, want 2004", v)
	}
}

// TestFaultyIPIAllocFree: under an IPI fault hook that drops every first
// attempt and delays every retry, the send → ipi-retry → ipi-delay →
// inject cycle allocates nothing in steady state, with the observer
// staging the interrupt's ipi_deliver span through the retry.
func TestFaultyIPIAllocFree(t *testing.T) {
	rounds := 0
	clock, h, a, b := pingWorld(t, &rounds)
	h.SetObserver(obs.New(obs.Config{}))
	attempts := 0
	h.Hooks.IPIFault = func(Vector) (simtime.Duration, bool) {
		attempts++
		if attempts%2 == 1 {
			return 0, true
		}
		return 3 * simtime.Microsecond, false
	}
	send := func() {
		h.SendVIPI(a.v, b.v, VecCallFunc, 0)
		clock.RunUntil(clock.Now() + 20*simtime.Microsecond)
	}
	send() // allocates the first free-list records
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("%v allocs per dropped, retried and delayed IPI, want 0", allocs)
	}
	if b.got != 1002 {
		t.Fatalf("%d IPIs injected, want 1002", b.got)
	}
	for _, c := range []string{"vipi.dropped", "vipi.retried"} {
		if v := h.Counters.Value(c); v != 1002 {
			t.Fatalf("%s = %d, want 1002", c, v)
		}
	}
}
