package guest

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// ThreadState is the guest-scheduler state of a thread.
type ThreadState uint8

// Thread states.
const (
	ThreadReady     ThreadState = iota // on its vCPU's run queue
	ThreadRunning                      // current thread of its vCPU
	ThreadSleeping                     // waiting for a timer
	ThreadBlockedIO                    // waiting on a socket
	ThreadWaking                       // wakeup in flight (resched IPI sent)
	ThreadDone                         // program finished
	ThreadLockWait                     // blocked on a sleeping lock (rwsem)
)

// String names the state.
func (s ThreadState) String() string {
	switch s {
	case ThreadReady:
		return "ready"
	case ThreadRunning:
		return "running"
	case ThreadSleeping:
		return "sleeping"
	case ThreadBlockedIO:
		return "blocked-io"
	case ThreadWaking:
		return "waking"
	case ThreadDone:
		return "done"
	case ThreadLockWait:
		return "lock-wait"
	default:
		return fmt.Sprintf("tstate(%d)", uint8(s))
	}
}

// OpKind identifies a thread operation.
type OpKind uint8

// Operation kinds a Program can emit.
const (
	OpCompute  OpKind = iota // user-level computation for Dur
	OpKernel                 // non-critical kernel work for Dur at RIP
	OpLock                   // acquire Lock, hold Dur (critical section), release
	OpTLBFlush               // mmap/munmap-style TLB shootdown to all live sibling vCPUs
	OpSleep                  // sleep for Dur (timer wakeup)
	OpRecv                   // receive one packet from Sock (blocks when empty)
	OpSend                   // transmit Bytes on the domain NIC, costing Dur
	OpWake                   // wake Target thread (ttwu path), costing Dur
	OpDisk                   // block I/O of Bytes (Write selects direction); blocks until completion
	OpExit                   // terminate the thread
)

// String names the kind.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpKernel:
		return "kernel"
	case OpLock:
		return "lock"
	case OpTLBFlush:
		return "tlbflush"
	case OpSleep:
		return "sleep"
	case OpRecv:
		return "recv"
	case OpSend:
		return "send"
	case OpWake:
		return "wake"
	case OpDisk:
		return "disk"
	case OpExit:
		return "exit"
	default:
		return fmt.Sprintf("op(%d)", uint8(k))
	}
}

// Op is one operation of a thread program. Kind, Write and Bytes share the
// first word and the kernel function is a resolved address, so an Op is 56
// bytes and copies without a loop.
type Op struct {
	Kind   OpKind
	Write  bool             // OpDisk direction
	Bytes  int32            // OpSend / OpDisk payload
	Dur    simtime.Duration // compute time / critical-section hold / sleep time / path cost
	RIP    uint64           // OpKernel: an address inside the kernel function (Table.InnerAddr); 0 runs at the user RIP
	Lock   *SpinLock        // OpLock target; for OpTLBFlush: held across the shootdown (mmap_sem)
	Sock   *Socket          // OpRecv source
	Target *Thread          // OpWake target
	// Done, if set, fires when the op completes through the engine's normal
	// completion path (opDone), after the op's effects, at the completion
	// instant — e.g. a serving reply's transmit timestamp. It does not fire
	// for ops that complete elsewhere (OpTLBFlush, OpExit).
	Done func(now simtime.Time)
}

// Program generates a thread's operation sequence. Next is called each time
// the previous operation completes; returning OpExit ends the thread.
type Program interface {
	Next(now simtime.Time) Op
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func(now simtime.Time) Op

// Next implements Program.
func (f ProgramFunc) Next(now simtime.Time) Op { return f(now) }

// phase is the execution sub-state of the current thread of a vCPU.
type phase uint8

const (
	phaseIdle     phase = iota // between operations
	phaseOp                    // executing the current op for remaining ns
	phaseSpin                  // spinning on lock
	phaseGranted               // lock granted while descheduled; enter CS on resume
	phaseAcks                  // waiting for TLB shootdown acks
	phaseAcksDone              // all acks arrived; finish the op on resume
	phaseRestart               // re-run the current op on resume (blocked recv)
)

// shootdown tracks an in-flight TLB shootdown initiated by a thread.
type shootdown struct {
	active      bool // from initiateShootdown until finishShootdown
	pendingAcks int
	start       simtime.Time
}

// Thread is a guest kernel/user thread.
type Thread struct {
	ID   int
	Name string

	vc    *VCPU
	state ThreadState
	prog  Program

	op        Op
	opStage   int
	ph        phase
	remaining simtime.Duration

	lock      *SpinLock // lock being waited for or held
	shoot     shootdown // embedded: a TLB flush allocates nothing
	spinStart simtime.Time
	lockSpan  obs.SpanRef // open lock_acquire span while contending

	switchedInAt simtime.Time
	OpsDone      uint64

	// Pre-bound blocking-op completion callbacks (set in NewThread).
	timerFn func() // sleep-timer expiry -> local VecTimer
	diskFn  func() // disk completion  -> per-queue VecDisk MSI
}

// State returns the thread's scheduler state.
func (t *Thread) State() ThreadState { return t.state }

// Program returns the thread's operation source.
func (t *Thread) Program() Program { return t.prog }

func (t *Thread) String() string {
	return fmt.Sprintf("%s(t%d,%s)", t.Name, t.ID, t.state)
}
