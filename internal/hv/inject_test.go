package hv

import (
	"testing"

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
	if h.freeInject == nil || h.freeInject.next != nil {
		t.Fatal("ping-pong used more than one injection record")
	}
	if v := h.Counters.Value("vipi.sent"); v != 100 {
		t.Fatalf("vipi.sent = %d, want 100", v)
	}
}
