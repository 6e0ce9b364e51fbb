package guest

import (
	"testing"
	"unsafe"

	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestOpSize: every op a program hands the engine is copied by value
// (Program.Next, nextOp, startOp). Up to 64 bytes the compiler copies it
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
