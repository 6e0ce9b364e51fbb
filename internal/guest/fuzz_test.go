package guest

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// randProg emits a random but valid op stream: the adversarial input for
// the execution engine.
type randProg struct {
	r     *rng.Source
	k     *Kernel
	locks []*SpinLock
	socks []*Socket
	self  int
}

func (p *randProg) Next(now simtime.Time) Op {
	switch p.r.Intn(10) {
	case 0, 1, 2:
		return Op{Kind: OpCompute, Dur: simtime.Duration(p.r.ExpDur(int64(50 * simtime.Microsecond)))}
	case 3:
		return Op{Kind: OpKernel, RIP: p.k.Sym.InnerAddr("vfs_read"), Dur: simtime.Duration(p.r.ExpDur(int64(3 * simtime.Microsecond)))}
	case 4, 5:
		return Op{
			Kind: OpLock,
			Lock: p.locks[p.r.Intn(len(p.locks))],
			Dur:  simtime.Duration(p.r.ExpDur(int64(2 * simtime.Microsecond))),
		}
	case 6:
		op := Op{Kind: OpTLBFlush}
		if p.r.Bool(0.3) {
			op.Lock = p.locks[len(p.locks)-1] // the sleeping one
		}
		return op
	case 7:
		return Op{Kind: OpSleep, Dur: simtime.Duration(p.r.ExpDur(int64(30 * simtime.Microsecond)))}
	case 8:
		// Wake a random sibling thread.
		ths := p.k.Threads()
		return Op{Kind: OpWake, Dur: 700, Target: ths[p.r.Intn(len(ths))]}
	default:
		return Op{Kind: OpCompute, Dur: simtime.Duration(1 + p.r.Intn(1000))}
	}
}

// TestFuzzRandomPrograms drives two VMs of random-op threads through heavy
// consolidation plus pool churn and verifies global invariants: no panics,
// conserved thread counts, consistent lock ownership, and a drained
// machine at the end.
func TestFuzzRandomPrograms(t *testing.T) {
	for seed := uint64(1); seed <= 8; seed++ {
		seed := seed
		clock := simtime.NewClock()
		cfg := hv.DefaultConfig()
		cfg.PCPUs = 3
		h := hv.New(clock, cfg)
		r := rng.New(seed)

		var kernels []*Kernel
		var allLocks []*SpinLock
		for d := 0; d < 2; d++ {
			k := NewKernel(h, "vm", 4, ksym.Generate(seed+uint64(d)), DefaultParams())
			locks := []*SpinLock{
				k.Lock("a", "Page allocator", "get_page_from_freelist"),
				k.Lock("b", "Dentry", "__d_lookup"),
				k.RWSem("sem", "Runqueue", "rwsem_wake"),
			}
			allLocks = append(allLocks, locks...)
			for i := 0; i < 4; i++ {
				k.NewThread(i, "fz", &randProg{r: r.Fork(uint64(d*100 + i)), k: k, locks: locks})
			}
			kernels = append(kernels, k)
		}
		h.Start()
		for _, k := range kernels {
			k.StartAll()
		}
		// Interleave execution with micro-pool churn.
		for step := 0; step < 30; step++ {
			clock.RunUntil(clock.Now() + 5*simtime.Millisecond)
			switch step % 5 {
			case 0:
				h.GrowMicro()
			case 2:
				for _, v := range h.VCPUs() {
					if v.State() == hv.StateRunnable && !v.OnMicro() {
						h.MigrateToMicro(v)
						break
					}
				}
			case 4:
				h.ShrinkMicro()
			}
			// Lock invariants: a holder is a live thread; waiter lists
			// never contain the holder.
			for _, l := range allLocks {
				if hd := l.holder; hd != nil {
					if hd.State() == ThreadDone {
						t.Fatalf("seed %d: finished thread holds %s", seed, l.Name())
					}
					for _, w := range l.waiters {
						if w == hd {
							t.Fatalf("seed %d: holder queued as waiter on %s", seed, l.Name())
						}
					}
				}
			}
			// Engine invariants per vCPU.
			for _, k := range kernels {
				for _, vc := range k.VCPUs {
					if vc.cur != nil && vc.cur.state != ThreadRunning {
						t.Fatalf("seed %d: cur thread in state %v", seed, vc.cur.state)
					}
					for _, th := range vc.runq {
						if th.state != ThreadReady && th.state != ThreadDone {
							// Done threads are lazily skipped by pickNext;
							// anything else on the queue is a bug.
							t.Fatalf("seed %d: queued thread in state %v", seed, th.state)
						}
					}
				}
			}
		}
		// All threads must have made progress.
		for _, k := range kernels {
			for _, th := range k.Threads() {
				if th.OpsDone == 0 {
					t.Fatalf("seed %d: thread %s starved", seed, th)
				}
			}
		}
	}
}

// TestFuzzDeterminism re-runs one fuzz seed and requires identical totals.
func TestFuzzDeterminism(t *testing.T) {
	run := func() uint64 {
		clock := simtime.NewClock()
		cfg := hv.DefaultConfig()
		cfg.PCPUs = 2
		h := hv.New(clock, cfg)
		k := NewKernel(h, "vm", 3, ksym.Generate(5), DefaultParams())
		locks := []*SpinLock{
			k.Lock("a", "Page allocator", "get_page_from_freelist"),
			k.RWSem("sem", "Runqueue", "rwsem_wake"),
		}
		r := rng.New(77)
		for i := 0; i < 3; i++ {
			k.NewThread(i, "fz", &randProg{r: r.Fork(uint64(i)), k: k, locks: locks})
		}
		h.Start()
		k.StartAll()
		clock.RunUntil(200 * simtime.Millisecond)
		var total uint64
		for _, th := range k.Threads() {
			total += th.OpsDone
		}
		return total
	}
	if run() != run() {
		t.Fatal("fuzz scenario is nondeterministic")
	}
}
