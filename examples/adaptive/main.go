// Adaptive: watch the paper's Algorithm 1 at work. The workload switches
// personality mid-run — first lock-bound (PLE-dominant), then quiet, then
// TLB-bound (IPI-dominant) — and the controller resizes the micro pool
// accordingly: one core for spinlocks, zero when idle, and an iterative
// search for the IPI phase.
//
//	go run ./examples/adaptive
//
// (This example uses the library's internal packages directly to reach the
// trace ring; applications normally stay on the public facade.)
package main

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/trace"
)

// phasedProg changes behaviour with virtual time.
type phasedProg struct {
	r    *rng.Source
	lock *guest.SpinLock
	mm   *guest.SpinLock
	i    int
}

func (p *phasedProg) Next(now simtime.Time, op *guest.Op) {
	p.i++
	switch {
	case now < 2*simtime.Second: // lock-bound phase
		if p.i%2 == 0 {
			*op = guest.Op{Kind: guest.OpLock, Lock: p.lock, Dur: simtime.Duration(p.r.ExpDur(2000))}
			return
		}
		*op = guest.Op{Kind: guest.OpCompute, Dur: simtime.Duration(p.r.ExpDur(int64(12 * simtime.Microsecond)))}
	case now < 4*simtime.Second: // quiet phase: plain computation
		*op = guest.Op{Kind: guest.OpCompute, Dur: simtime.Duration(p.r.ExpDur(int64(300 * simtime.Microsecond)))}
	default: // TLB-bound phase
		if p.i%2 == 0 {
			*op = guest.Op{Kind: guest.OpTLBFlush}
			return
		}
		*op = guest.Op{Kind: guest.OpCompute, Dur: simtime.Duration(p.r.ExpDur(int64(150 * simtime.Microsecond)))}
	}
}

func main() {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.TraceCapacity = 1 << 16
	h := hv.New(clock, cfg)

	k := guest.NewKernel(h, "phased", 12, ksym.Generate(1), guest.DefaultParams())
	hog := guest.NewKernel(h, "swaptions", 12, ksym.Generate(2), guest.DefaultParams())
	r := rng.New(3)
	lock := k.Lock("zone0", "Page allocator", "get_page_from_freelist")
	for i := 0; i < 12; i++ {
		k.NewThread(i, "phased", &phasedProg{r: r.Fork(uint64(i)), lock: lock})
		hr := r.Fork(100 + uint64(i))
		hog.NewThread(i, "hog", guest.ProgramFunc(func(now simtime.Time) guest.Op {
			if hr.Bool(0.12) {
				return guest.Op{Kind: guest.OpSleep, Dur: 200 * simtime.Microsecond}
			}
			return guest.Op{Kind: guest.OpCompute, Dur: 5 * simtime.Millisecond}
		}))
	}

	ctrl, err := core.Attach(h, core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	h.Start()
	ctrl.Start()
	k.StartAll()
	hog.StartAll()

	fmt.Println("Algorithm 1 under a phase-changing workload (6s simulated)")
	fmt.Println("phases: 0-2s lock-bound | 2-4s quiet | 4-6s TLB-bound")
	fmt.Printf("%8s %8s %14s %14s %12s\n", "t", "ucores", "spin yields/s", "ipi yields/s", "migrations/s")
	var lastPLE, lastIPI, lastMig uint64
	for t := simtime.Duration(250 * simtime.Millisecond); t <= 6*simtime.Second; t += 250 * simtime.Millisecond {
		clock.RunUntil(t)
		ple := h.Counters.Value("yield.ple")
		ipi := h.Counters.Value("yield.ipi")
		mig := h.Counters.Value("migrate.micro")
		fmt.Printf("%8v %8d %14d %14d %12d\n",
			t, h.MicroCount(), (ple-lastPLE)*4, (ipi-lastIPI)*4, (mig-lastMig)*4)
		lastPLE, lastIPI, lastMig = ple, ipi, mig
	}

	resizes := h.Trace.Count(trace.KindPoolResize)
	fmt.Printf("\npool resizes over the run: %d (profiling probes and epoch decisions)\n", resizes)
	fmt.Printf("time-averaged micro cores: %.2f\n", ctrl.MicroGauge.TimeAverage(int64(clock.Now())))

	decs := ctrl.Decisions.All()
	fmt.Printf("\ndecision trail (%d epochs, newest %d retained):\n", ctrl.Decisions.Total(), len(decs))
	for _, d := range decs {
		fmt.Printf("  t=%-7v epoch %-2d %-14s -> %d cores (ceiling %d; ipi %d / ple %d / irq %d)\n",
			simtime.Duration(d.Time), d.Epoch, d.Reason, d.Chosen, d.Ceiling,
			d.IPIs, d.PLEs, d.IRQs)
	}
	fmt.Println("\nreading: one core while spinlocks dominate, zero once the load")
	fmt.Println("turns compute-only, and an iterative IPI search (up to the 3-core")
	fmt.Println("limit) when the TLB-shootdown phase begins — Algorithm 1 verbatim.")
}
