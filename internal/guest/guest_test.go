package guest

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

func boot(t *testing.T, pcpus, vcpus int) (*simtime.Clock, *hv.Hypervisor, *Kernel) {
	t.Helper()
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = pcpus
	h := hv.New(clock, cfg)
	k := NewKernel(h, "vm", vcpus, ksym.Generate(1), DefaultParams())
	return clock, h, k
}

// seqProg replays a fixed op list, then exits.
type seqProg struct {
	ops []Op
	i   int
}

func (p *seqProg) Next(now simtime.Time) Op {
	if p.i >= len(p.ops) {
		return Op{Kind: OpExit}
	}
	op := p.ops[p.i]
	p.i++
	return op
}

// loopProg repeats one op forever.
type loopProg struct{ op Op }

func (p *loopProg) Next(now simtime.Time) Op { return p.op }

func TestComputeThreadRunsAndExits(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	var exited *Thread
	k.OnThreadExit = func(th *Thread) { exited = th }
	th := k.NewThread(0, "worker", &seqProg{ops: []Op{
		{Kind: OpCompute, Dur: 2 * simtime.Millisecond},
		{Kind: OpCompute, Dur: 3 * simtime.Millisecond},
	}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if th.State() != ThreadDone {
		t.Fatalf("thread state %v", th.State())
	}
	if exited != th {
		t.Fatal("exit hook not fired")
	}
	// 5ms of work + one context switch; vCPU then halts.
	if got := th.vc.hvv.RanTotal(); got != 5*simtime.Millisecond {
		t.Fatalf("ranTotal=%v, want 5ms", got)
	}
	if th.vc.hvv.State() != hv.StateBlocked {
		t.Fatal("vCPU should halt after all threads exit")
	}
}

func TestUncontendedLockIsFastPath(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	l := k.Lock("zone", "Page allocator", "get_page_from_freelist")
	th := k.NewThread(0, "alloc", &seqProg{ops: []Op{
		{Kind: OpLock, Lock: l, Dur: 2 * simtime.Microsecond},
	}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if th.State() != ThreadDone {
		t.Fatalf("state %v", th.State())
	}
	if l.Acquisitions != 1 || l.Contended != 0 {
		t.Fatalf("acq=%d contended=%d", l.Acquisitions, l.Contended)
	}
	hist := k.LockStat["Page allocator"]
	if hist.Count() != 0 {
		t.Fatalf("fast path must not record a wait: %s", hist)
	}
	if l.holder != nil {
		t.Fatal("lock not released")
	}
}

func TestContendedLockFIFOGrant(t *testing.T) {
	clock, h, k := boot(t, 3, 3)
	l := k.Lock("rq", "Runqueue", "enqueue_task_fair")
	mk := func(vc int, name string) *Thread {
		return k.NewThread(vc, name, &seqProg{ops: []Op{
			{Kind: OpLock, Lock: l, Dur: 100 * simtime.Microsecond},
		}})
	}
	a, b, c := mk(0, "a"), mk(1, "b"), mk(2, "c")
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	for _, th := range []*Thread{a, b, c} {
		if th.State() != ThreadDone {
			t.Fatalf("%s state %v", th.Name, th.State())
		}
	}
	if l.Acquisitions != 3 {
		t.Fatalf("acquisitions=%d", l.Acquisitions)
	}
	hist := k.LockStat["Runqueue"]
	if hist.Count() != 2 {
		t.Fatalf("lockstat count=%d, want 2 contended waits", hist.Count())
	}
	// Third acquirer waited for ~two 100us critical sections.
	if max := hist.Max(); max < 150000 || max > 300000 {
		t.Fatalf("max wait %dns, want ~200us", max)
	}
}

func TestLockHolderPreemptionCausesPLEYields(t *testing.T) {
	// One pCPU, two vCPUs in one VM plus a hog VM: the holder gets
	// preempted mid-CS and the waiter PLE-yields until the holder runs.
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 1
	h := hv.New(clock, cfg)
	k := NewKernel(h, "vm", 2, ksym.Generate(1), DefaultParams())
	l := k.Lock("d", "Dentry", "__d_lookup")
	// Holder: long CS (5ms) so its 30ms slice can expire mid-CS when
	// contended... make CS long relative to PLE window but ensure holder
	// is descheduled while holding: we arrange that by the second VM
	// hogging and slice interleave. Simpler: holder acquires then the
	// waiter spins while holder is queued behind the hog.
	holder := k.NewThread(0, "holder", &loopProg{op: Op{Kind: OpLock, Lock: l, Dur: 3 * simtime.Millisecond}})
	waiter := k.NewThread(1, "waiter", &loopProg{op: Op{Kind: OpLock, Lock: l, Dur: 3 * simtime.Millisecond}})
	_ = holder
	_ = waiter
	h.Start()
	k.StartAll()
	clock.RunUntil(2 * simtime.Second)
	if h.Counters.Value("yield.ple") == 0 {
		t.Fatal("no PLE yields under lock-holder preemption")
	}
	if l.Acquisitions < 10 {
		t.Fatalf("lock made little progress: %d acquisitions", l.Acquisitions)
	}
	// Wait-time tail must reflect multi-millisecond holder absence.
	if k.LockStat["Dentry"].Max() < int64(simtime.Millisecond) {
		t.Fatalf("max dentry wait %dns — LHP not observed", k.LockStat["Dentry"].Max())
	}
}

func TestTLBShootdownSoloIsFast(t *testing.T) {
	// 4 vCPUs on 4 pCPUs: all recipients run, acks come back in ~us.
	clock, h, k := boot(t, 4, 4)
	init := k.NewThread(0, "init", &seqProg{ops: []Op{
		{Kind: OpTLBFlush},
	}})
	// Keep the sibling vCPUs alive with compute so they are shootdown
	// targets.
	for i := 1; i < 4; i++ {
		k.NewThread(i, "spinny", &loopProg{op: Op{Kind: OpCompute, Dur: simtime.Millisecond}})
	}
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if init.State() != ThreadDone {
		t.Fatalf("initiator state %v", init.State())
	}
	if k.TLBStat.Count() != 1 {
		t.Fatalf("tlb stat count=%d", k.TLBStat.Count())
	}
	lat := k.TLBStat.Max()
	if lat <= 0 || lat > int64(100*simtime.Microsecond) {
		t.Fatalf("solo shootdown latency %dns, want < 100us", lat)
	}
	if h.Counters.Value("vipi.sent") != 3 {
		t.Fatalf("vipi.sent=%d, want 3", h.Counters.Value("vipi.sent"))
	}
}

func TestTLBShootdownNoSiblingsIsInstant(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	init := k.NewThread(0, "init", &seqProg{ops: []Op{{Kind: OpTLBFlush}}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if init.State() != ThreadDone {
		t.Fatal("initiator stuck")
	}
	if k.TLBStat.Count() != 1 || k.TLBStat.Max() != 0 {
		t.Fatalf("stat %s", k.TLBStat)
	}
}

func TestTLBShootdownYieldRescuesSiblingOnSamePCPU(t *testing.T) {
	// 1 pCPU, VM with 2 vCPUs: the recipient is runnable-but-preempted on
	// the *initiator's* pCPU, so the initiator's voluntary yield hands the
	// pCPU over and the shootdown completes after one spin window.
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 1
	h := hv.New(clock, cfg)
	k := NewKernel(h, "vm", 2, ksym.Generate(1), DefaultParams())
	init := k.NewThread(0, "init", &seqProg{ops: []Op{
		{Kind: OpCompute, Dur: simtime.Millisecond},
		{Kind: OpTLBFlush},
	}})
	k.NewThread(1, "sib", &loopProg{op: Op{Kind: OpCompute, Dur: simtime.Millisecond}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if init.State() != ThreadDone {
		t.Fatalf("initiator state %v", init.State())
	}
	if h.Counters.Value("yield.ipi") == 0 {
		t.Fatal("no IPI-wait yields despite preempted recipient")
	}
	if k.TLBStat.Count() != 1 {
		t.Fatalf("tlb count=%d", k.TLBStat.Count())
	}
	lat := k.TLBStat.Max()
	if lat < int64(10*simtime.Microsecond) || lat > int64(simtime.Millisecond) {
		t.Fatalf("latency %dns — want one spin-window-scale rescue", lat)
	}
}

func TestTLBShootdownDelayedByCoRunnerVM(t *testing.T) {
	// The paper's co-run shape: the recipient sibling is preempted on
	// *another* pCPU behind a co-runner VM's vCPU, so the initiator's own
	// yield cannot help and completion waits for a scheduling turn.
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 2
	h := hv.New(clock, cfg)
	k := NewKernel(h, "vm", 2, ksym.Generate(1), DefaultParams())
	hog := NewKernel(h, "hog", 3, ksym.Generate(2), DefaultParams())
	init := k.NewThread(0, "init", &flushLoopProg{compute: 5 * simtime.Millisecond})
	k.NewThread(1, "sib", &loopProg{op: Op{Kind: OpCompute, Dur: simtime.Millisecond}})
	for i := 0; i < 3; i++ {
		hog.NewThread(i, "hog", &loopProg{op: Op{Kind: OpCompute, Dur: simtime.Millisecond}})
	}
	h.Start()
	k.StartAll()
	hog.StartAll()
	clock.RunUntil(4 * simtime.Second)
	if init.OpsDone < 10 {
		t.Fatalf("initiator made no progress: %d ops", init.OpsDone)
	}
	if h.Counters.Value("yield.ipi") == 0 {
		t.Fatal("no IPI-wait yields despite co-runner contention")
	}
	if lat := k.TLBStat.Max(); lat < int64(2*simtime.Millisecond) {
		t.Fatalf("max latency %dns — expected multi-ms VTD delay behind the co-runner", lat)
	}
}

// flushLoopProg alternates a compute burst with a TLB flush, forever.
type flushLoopProg struct {
	compute simtime.Duration
	i       int
}

func (p *flushLoopProg) Next(now simtime.Time) Op {
	p.i++
	if p.i%2 == 1 {
		return Op{Kind: OpCompute, Dur: p.compute}
	}
	return Op{Kind: OpTLBFlush}
}

func TestSleepAndTimerWake(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	th := k.NewThread(0, "sleeper", &seqProg{ops: []Op{
		{Kind: OpSleep, Dur: 5 * simtime.Millisecond},
		{Kind: OpCompute, Dur: simtime.Millisecond},
	}})
	h.Start()
	k.StartAll()
	clock.RunUntil(3 * simtime.Millisecond)
	if th.State() != ThreadSleeping {
		t.Fatalf("state %v at 3ms", th.State())
	}
	if th.vc.hvv.State() != hv.StateBlocked {
		t.Fatal("vCPU should halt while its only thread sleeps")
	}
	clock.RunUntil(simtime.Second)
	if th.State() != ThreadDone {
		t.Fatalf("state %v", th.State())
	}
}

func TestCrossVCPUWakeUsesReschedIPI(t *testing.T) {
	clock, h, k := boot(t, 2, 2)
	sleeper := k.NewThread(1, "sleeper", &seqProg{ops: []Op{
		{Kind: OpSleep, Dur: simtime.Second * 100}, // effectively forever
		{Kind: OpCompute, Dur: simtime.Microsecond},
	}})
	k.NewThread(0, "waker", &seqProg{ops: []Op{
		{Kind: OpCompute, Dur: simtime.Millisecond},
		{Kind: OpWake, Dur: 700 * simtime.Nanosecond, Target: sleeper},
		{Kind: OpCompute, Dur: simtime.Millisecond},
	}})
	h.Start()
	k.StartAll()
	clock.RunUntil(50 * simtime.Millisecond)
	if sleeper.State() != ThreadSleeping && sleeper.State() != ThreadDone {
		// The wake must have moved it out of sleeping.
		t.Logf("sleeper state %v", sleeper.State())
	}
	if h.Counters.Value("vipi.sent") == 0 {
		t.Fatal("cross-vCPU wake did not send a resched IPI")
	}
	clock.RunUntil(simtime.Second)
	// The "forever" sleep was cut short by the wake: compute op ran.
	if sleeper.OpsDone == 0 {
		t.Fatal("woken thread never progressed")
	}
}

func TestGuestRoundRobinSharesVCPU(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	a := k.NewThread(0, "a", &loopProg{op: Op{Kind: OpCompute, Dur: simtime.Millisecond}})
	b := k.NewThread(0, "b", &loopProg{op: Op{Kind: OpCompute, Dur: simtime.Millisecond}})
	h.Start()
	k.StartAll()
	clock.RunUntil(200 * simtime.Millisecond)
	if a.OpsDone == 0 || b.OpsDone == 0 {
		t.Fatalf("ops a=%d b=%d — guest scheduler starved a thread", a.OpsDone, b.OpsDone)
	}
	ratio := float64(a.OpsDone) / float64(b.OpsDone)
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("unfair guest sharing: a=%d b=%d", a.OpsDone, b.OpsDone)
	}
}

// fakeNIC queues packets and counts transmissions.
type fakeNIC struct {
	ring []Packet
	tx   int
}

func (n *fakeNIC) Fetch(max int) []Packet {
	if len(n.ring) <= max {
		out := n.ring
		n.ring = nil
		return out
	}
	out := n.ring[:max]
	n.ring = n.ring[max:]
	return out
}

func (n *fakeNIC) Transmit(bytes int, now simtime.Time) { n.tx++ }

func TestNetIRQDeliversToSocketAndWakesReceiver(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	nic := &fakeNIC{}
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	var consumed []Packet
	var consumedAt []simtime.Time
	sock.OnAppConsume = func(p Packet, now simtime.Time) {
		consumed = append(consumed, p)
		consumedAt = append(consumedAt, now)
	}
	k.NewThread(0, "server", &loopProg{op: Op{Kind: OpRecv, Sock: sock}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Millisecond) // server blocks on empty socket
	// Inject 3 packets and raise the IRQ.
	for i := 0; i < 3; i++ {
		nic.ring = append(nic.ring, Packet{Seq: uint64(i), Flow: 0, Bytes: 1500, SentAt: clock.Now()})
	}
	h.InjectPIRQ(k.Dom, hv.VecNet, 0)
	clock.RunUntil(2 * simtime.Millisecond)
	if len(consumed) != 3 {
		t.Fatalf("consumed %d packets, want 3", len(consumed))
	}
	for i, p := range consumed {
		if p.Seq != uint64(i) {
			t.Fatalf("out-of-order consume: %v", consumed)
		}
	}
	if sock.Delivered != 3 || sock.Consumed != 3 {
		t.Fatalf("delivered=%d consumed=%d", sock.Delivered, sock.Consumed)
	}
	// Latency from IRQ to first consume: pirq cost + irq + softirq + consume,
	// all well under 100us on an idle machine.
	if consumedAt[0] > simtime.Millisecond+100*simtime.Microsecond {
		t.Fatalf("first consume at %v — I/O path too slow on idle vCPU", consumedAt[0])
	}
}

func TestSendTransmitsOnNIC(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	nic := &fakeNIC{}
	k.AttachNIC(nic)
	k.NewThread(0, "tx", &seqProg{ops: []Op{
		{Kind: OpSend, Dur: simtime.Microsecond, Bytes: 1500},
		{Kind: OpSend, Dur: simtime.Microsecond, Bytes: 1500},
	}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if nic.tx != 2 {
		t.Fatalf("tx=%d", nic.tx)
	}
}

func TestMixedVCPUWakeupPreemption(t *testing.T) {
	// lookbusy-style hog and an I/O thread share one vCPU: a packet must
	// preempt the hog promptly once the vCPU itself is running.
	clock, h, k := boot(t, 1, 1)
	nic := &fakeNIC{}
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	var consumedAt simtime.Time
	sock.OnAppConsume = func(p Packet, now simtime.Time) { consumedAt = now }
	k.NewThread(0, "iperf", &loopProg{op: Op{Kind: OpRecv, Sock: sock}})
	k.NewThread(0, "lookbusy", &loopProg{op: Op{Kind: OpCompute, Dur: simtime.Millisecond}})
	h.Start()
	k.StartAll()
	clock.RunUntil(10 * simtime.Millisecond)
	nic.ring = append(nic.ring, Packet{Seq: 1, Flow: 0, Bytes: 1500, SentAt: clock.Now()})
	injectAt := clock.Now()
	h.InjectPIRQ(k.Dom, hv.VecNet, 0)
	clock.RunUntil(injectAt + 5*simtime.Millisecond)
	if consumedAt == 0 {
		t.Fatal("packet never consumed")
	}
	// The vCPU is running (hog), so the IRQ lands immediately and wakeup
	// preemption runs the iperf thread within ~the hog's current 1ms op.
	if consumedAt-injectAt > 1500*simtime.Microsecond {
		t.Fatalf("consume latency %v — wakeup preemption failed", consumedAt-injectAt)
	}
}

func TestRIPTracksActivities(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	l := k.Lock("z", "Page allocator", "get_page_from_freelist")
	k.NewThread(0, "w", &loopProg{op: Op{Kind: OpLock, Lock: l, Dur: simtime.Millisecond}})
	h.Start()
	k.StartAll()
	clock.RunUntil(5 * simtime.Millisecond)
	vc := k.VCPUs[0]
	// Mid-CS: RIP must resolve to the CS body.
	if name := k.Sym.NameOf(vc.RIP()); name != "get_page_from_freelist" {
		t.Fatalf("RIP resolves to %q mid-CS", name)
	}
	if cls := k.Sym.ClassifyAddr(vc.RIP()); cls != ksym.ClassSpinlock {
		t.Fatalf("class %v", cls)
	}
}

func TestIdleVCPURIPIsHalt(t *testing.T) {
	clock, h, k := boot(t, 1, 1)
	k.NewThread(0, "w", &seqProg{ops: []Op{{Kind: OpCompute, Dur: simtime.Millisecond}}})
	h.Start()
	k.StartAll()
	clock.RunUntil(simtime.Second)
	if name := k.Sym.NameOf(k.VCPUs[0].RIP()); name != "native_safe_halt" {
		t.Fatalf("idle RIP resolves to %q", name)
	}
}

func TestSymbolMapAttachedToDomain(t *testing.T) {
	_, _, k := boot(t, 1, 1)
	if len(k.Dom.SymbolMap) == 0 {
		t.Fatal("domain has no System.map blob")
	}
}

func TestStringers(t *testing.T) {
	states := []ThreadState{ThreadReady, ThreadRunning, ThreadSleeping,
		ThreadBlockedIO, ThreadWaking, ThreadDone, ThreadState(42)}
	for _, s := range states {
		if s.String() == "" {
			t.Fatal("empty state string")
		}
	}
	kinds := []OpKind{OpCompute, OpKernel, OpLock, OpTLBFlush, OpSleep,
		OpRecv, OpSend, OpWake, OpExit, OpKind(42)}
	for _, kk := range kinds {
		if kk.String() == "" {
			t.Fatal("empty op kind string")
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64, simtime.Time) {
		clock := simtime.NewClock()
		cfg := hv.DefaultConfig()
		cfg.PCPUs = 2
		h := hv.New(clock, cfg)
		k := NewKernel(h, "vm", 4, ksym.Generate(3), DefaultParams())
		l := k.Lock("z", "Page allocator", "get_page_from_freelist")
		for i := 0; i < 4; i++ {
			k.NewThread(i, "w", &loopProg{op: Op{Kind: OpLock, Lock: l, Dur: 50 * simtime.Microsecond}})
		}
		h.Start()
		k.StartAll()
		clock.RunUntil(500 * simtime.Millisecond)
		return h.Counters.Value("yield.total"), l.Acquisitions, clock.Now()
	}
	y1, a1, _ := run()
	y2, a2, _ := run()
	if y1 != y2 || a1 != a2 {
		t.Fatalf("nondeterministic: yields %d/%d acquisitions %d/%d", y1, y2, a1, a2)
	}
}
