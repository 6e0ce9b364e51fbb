package guest

import (
	"testing"
	"unsafe"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestOpSize: every op is copied by value (into the thread's slot by
// Program.Next, out of it by startOp). Up to 64 bytes the compiler copies it
// with a few vector moves; past that it calls runtime.duffcopy.
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(Op{}); n > 64 {
		t.Fatalf("Op is %d bytes, past the 64 that copy without runtime.duffcopy", n)
	}
}

// TestProgressRearmAllocFree: the progress event is re-armed in place on
// every op completion, and cancelled and re-armed across every slice
// preemption, without allocating. Two compute-looping vCPUs share one
// pCPU, so each measured 35 ms span holds about 700 op completions and at
// least one preemption of each kind.
func TestProgressRearmAllocFree(t *testing.T) {
	clock, h, k := boot(t, 1, 2)
	op := Op{Kind: OpCompute, Dur: 50 * simtime.Microsecond}
	k.NewThread(0, "a", &loopProg{op: op})
	k.NewThread(1, "b", &loopProg{op: op})
	h.Start()
	k.StartAll()
	clock.RunUntil(100 * simtime.Millisecond)
	preempts := h.Counters.Value("sched.preempt")
	span := func() { clock.RunUntil(clock.Now() + 35*simtime.Millisecond) }
	if allocs := testing.AllocsPerRun(20, span); allocs != 0 {
		t.Errorf("%v allocs per 35 ms of op completions and preemptions, want 0", allocs)
	}
	if n := h.Counters.Value("sched.preempt") - preempts; n < 21 {
		t.Fatalf("%d slice preemptions over 21 spans, want one per span at least", n)
	}
}

// TestSleepingLockHandoffAllocFree: handing a contended sleeping lock to
// the head of its FIFO, and queueing the next waiter behind it, allocates
// nothing once the waiter queue has grown to its deepest.
func TestSleepingLockHandoffAllocFree(t *testing.T) {
	clock, h, k := boot(t, 2, 4)
	sem := k.RWSem("mmap_sem", "Memory mapping", "rwsem_wake")
	for i := 0; i < 4; i++ {
		k.NewThread(i, "w", &loopProg{op: Op{Kind: OpLock, Lock: sem, Dur: 20 * simtime.Microsecond}})
	}
	h.Start()
	k.StartAll()
	clock.RunUntil(100 * simtime.Millisecond)
	contended := sem.Contended
	span := func() { clock.RunUntil(clock.Now() + 10*simtime.Millisecond) }
	if allocs := testing.AllocsPerRun(20, span); allocs != 0 {
		t.Errorf("%v allocs per 10 ms of contended handoffs, want 0", allocs)
	}
	if n := sem.Contended - contended; n < 100 {
		t.Fatalf("%d contended acquisitions over 21 spans, want at least 100", n)
	}
}

// TestIRQQueueResumeAllocFree: a serving vCPU comes back to a 300-deep
// net-interrupt backlog, which the hypervisor drains into the vCPU's
// handler queue. The pCPU is taken away about a third of the way through
// the queue and handed back, and OnScheduled resumes the queue where it
// stopped. Once the queue's array has grown, a cycle allocates nothing.
func TestIRQQueueResumeAllocFree(t *testing.T) {
	const depth = 300
	clock, h, k := boot(t, 1, 1)
	hog := NewKernel(h, "hog", 1, ksym.Generate(2), DefaultParams())
	op := Op{Kind: OpCompute, Dur: simtime.Millisecond}
	k.NewThread(0, "srv", &loopProg{op: op})
	hog.NewThread(0, "hog", &loopProg{op: op})
	h.Start()
	k.StartAll()
	hog.StartAll()
	clock.RunUntil(100 * simtime.Microsecond)
	p, srv, other := h.PCPU(0), k.VCPUs[0], hog.VCPUs[0].HV()
	run := func(d simtime.Duration) { clock.RunUntil(clock.Now() + d) }
	cycles, cut := 0, 0
	cycle := func() {
		cycles++
		h.ForceDispatch(p, other)
		for i := 0; i < depth; i++ {
			h.InjectPIRQ(k.Dom, hv.VecNet, 0)
		}
		run(20 * simtime.Microsecond)
		// Past the 16.5 µs context switch, about 100 of the 1 µs handlers
		// run before the pCPU is taken away again.
		h.ForceDispatch(p, srv.HV())
		run(120 * simtime.Microsecond)
		h.ForceDispatch(p, other)
		if n := srv.irqQueue.Len(); n > 0 && n < depth-1 {
			cut++
		}
		run(20 * simtime.Microsecond)
		h.ForceDispatch(p, srv.HV())
		run(400 * simtime.Microsecond)
		if srv.irqQueue.Len() != 0 || srv.irq != nil || srv.HV().PendingCount() != 0 {
			t.Fatalf("cycle %d: %d handlers queued, one in flight %v, %d pending in the hypervisor; want none",
				cycles, srv.irqQueue.Len(), srv.irq != nil, srv.HV().PendingCount())
		}
	}
	cycle() // grows the free lists and the handler queue's array
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("%v allocs per %d-deep backlog cut short and resumed, want 0", allocs, depth)
	}
	if cut != cycles {
		t.Fatalf("the pCPU was taken away mid-queue in %d of %d cycles", cut, cycles)
	}
}
