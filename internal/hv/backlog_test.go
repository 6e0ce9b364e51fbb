package hv

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// backlogGuest never blocks and arms no events. It counts the interrupts
// injected into it; with record set it also logs each one's data, and
// onIRQ, if set, runs inside OnInterrupt after the count.
type backlogGuest struct {
	v      *VCPU
	got    int
	record bool
	log    []uint64
	onIRQ  func(data uint64)
}

func (g *backlogGuest) OnScheduled(simtime.Time)   {}
func (g *backlogGuest) OnDescheduled(simtime.Time) {}
func (g *backlogGuest) RIP() uint64                { return 0x400000 }
func (g *backlogGuest) OnInterrupt(now simtime.Time, vec Vector, data uint64) {
	g.got++
	if g.record {
		g.log = append(g.log, data)
	}
	if g.onIRQ != nil {
		g.onIRQ(data)
	}
}

// backlogDepth is the net-IRQ backlog a serving vCPU comes back to after a
// co-runner's 30 ms slice: the NIC re-asserts every 100 µs while the
// vCPU is off its pCPU.
const backlogDepth = 300

// backlogWorld runs a serving vCPU and a hog on one pCPU, both stub
// guests that never block, and leaves the hog running.
func backlogWorld(tb testing.TB) (*simtime.Clock, *Hypervisor, *backlogGuest, *backlogGuest) {
	tb.Helper()
	clock, h := setup(1)
	d := h.NewDomain("vm", nil)
	srv, hog := &backlogGuest{}, &backlogGuest{}
	srv.v, hog.v = h.AddVCPU(d, srv), h.AddVCPU(d, hog)
	h.Start()
	h.Wake(hog.v, false)
	h.Wake(srv.v, false)
	clock.RunUntil(clock.Now() + 100*simtime.Microsecond)
	if hog.v.State() != StateRunning || srv.v.State() != StateRunnable {
		tb.Fatalf("hog %v, server %v; want running and runnable", hog.v.State(), srv.v.State())
	}
	return clock, h, srv, hog
}

// queueBacklog takes the pCPU from srv and routes n net interrupts,
// numbered from first, to it while it waits on the runqueue.
func queueBacklog(clock *simtime.Clock, h *Hypervisor, srv, hog *backlogGuest, first, n int) {
	h.ForceDispatch(h.PCPU(0), hog.v)
	for i := 0; i < n; i++ {
		h.InjectPIRQTo(srv.v, VecNet, uint64(first+i))
	}
	clock.RunUntil(clock.Now() + 20*simtime.Microsecond)
}

// dispatchBacklog gives srv the pCPU back and runs past the context switch,
// at whose end the hypervisor drains srv's backlog.
func dispatchBacklog(clock *simtime.Clock, h *Hypervisor, srv *backlogGuest) {
	h.ForceDispatch(h.PCPU(0), srv.v)
	clock.RunUntil(clock.Now() + 20*simtime.Microsecond)
}

// wantSeq checks that log is 0, 1, ..., n-1 followed by tail.
func wantSeq(t *testing.T, log []uint64, n int, tail ...uint64) {
	t.Helper()
	if len(log) != n+len(tail) {
		t.Fatalf("%d interrupts delivered, want %d", len(log), n+len(tail))
	}
	for i := 0; i < n; i++ {
		if log[i] != uint64(i) {
			t.Fatalf("interrupt %d carries %d, want %d (order %v)", i, log[i], i, log[:n])
		}
	}
	for i, d := range tail {
		if log[n+i] != d {
			t.Fatalf("interrupt %d carries %d, want %d", n+i, log[n+i], d)
		}
	}
}

// TestNetBacklogDrainsInOrder: a 300-deep VecNet backlog queued while the
// vCPU waits on the runqueue is counted by PendingCount and delivered in
// arrival order when it is dispatched.
func TestNetBacklogDrainsInOrder(t *testing.T) {
	clock, h, srv, hog := backlogWorld(t)
	srv.record = true
	queueBacklog(clock, h, srv, hog, 0, backlogDepth)
	if n := srv.v.PendingCount(); n != backlogDepth {
		t.Fatalf("PendingCount %d before dispatch, want %d", n, backlogDepth)
	}
	dispatchBacklog(clock, h, srv)
	if n := srv.v.PendingCount(); n != 0 {
		t.Fatalf("PendingCount %d after the drain, want 0", n)
	}
	wantSeq(t, srv.log, backlogDepth)
}

// TestBacklogDrainCutShortResumes: a guest that halts mid-drain stops the
// drain there; the next dispatch resumes at the first undelivered element,
// and an interrupt that arrived meanwhile follows the rest.
func TestBacklogDrainCutShortResumes(t *testing.T) {
	const cut = 99
	clock, h, srv, hog := backlogWorld(t)
	srv.record = true
	srv.onIRQ = func(data uint64) {
		if data == cut {
			h.Block(srv.v)
		}
	}
	queueBacklog(clock, h, srv, hog, 0, backlogDepth)
	dispatchBacklog(clock, h, srv)
	if srv.v.State() != StateBlocked {
		t.Fatalf("server %v after halting mid-drain, want blocked", srv.v.State())
	}
	if n := srv.v.PendingCount(); n != backlogDepth-cut-1 {
		t.Fatalf("PendingCount %d after the cut, want %d", n, backlogDepth-cut-1)
	}
	wantSeq(t, srv.log, cut+1)
	// The next interrupt queues behind the rest and wakes the vCPU.
	h.InjectPIRQTo(srv.v, VecNet, backlogDepth)
	clock.RunUntil(clock.Now() + simtime.Millisecond)
	if n := srv.v.PendingCount(); n != 0 {
		t.Fatalf("PendingCount %d after the resumed drain, want 0", n)
	}
	wantSeq(t, srv.log, backlogDepth+1)
}

// TestDeliverDuringDrainLandsLast: an interrupt delivered from inside
// OnInterrupt while a backlog drains is not slipped in among the queued
// ones: it arrives after the whole backlog.
func TestDeliverDuringDrainLandsLast(t *testing.T) {
	const extra = 1000
	clock, h, srv, hog := backlogWorld(t)
	srv.record = true
	srv.onIRQ = func(data uint64) {
		if data == backlogDepth/2 {
			h.DeliverLocal(srv.v, VecTimer, extra)
		}
	}
	queueBacklog(clock, h, srv, hog, 0, backlogDepth)
	dispatchBacklog(clock, h, srv)
	wantSeq(t, srv.log, backlogDepth, extra)
}

// TestBacklogDrainAllocFree: once the free lists and the backlog's array
// have grown to a 300-deep backlog, queueing and draining one allocates
// nothing.
func TestBacklogDrainAllocFree(t *testing.T) {
	clock, h, srv, hog := backlogWorld(t)
	cycle := func() {
		queueBacklog(clock, h, srv, hog, 0, backlogDepth)
		dispatchBacklog(clock, h, srv)
	}
	cycle() // grows the free lists and the backlog's array
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("%v allocs per %d-deep backlog drain, want 0", allocs, backlogDepth)
	}
	if want := 102 * backlogDepth; srv.got != want {
		t.Fatalf("%d interrupts delivered, want %d", srv.got, want)
	}
}

// BenchmarkDrainBacklog times one cycle of the mixed-I/O path's backlog: a
// serving vCPU off its pCPU collects 300 net interrupts, then is dispatched
// and drains them.
func BenchmarkDrainBacklog(b *testing.B) {
	clock, h, srv, hog := backlogWorld(b)
	queueBacklog(clock, h, srv, hog, 0, backlogDepth)
	dispatchBacklog(clock, h, srv)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		queueBacklog(clock, h, srv, hog, 0, backlogDepth)
		dispatchBacklog(clock, h, srv)
	}
}
