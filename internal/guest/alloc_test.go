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
