// Package guest models the guest operating system running inside a domain:
// per-vCPU run queues of kernel/user threads, qspinlocks with FIFO grant,
// the TLB-shootdown protocol over call-function IPIs, reschedule IPIs,
// hardirq/softIRQ network receive, timers, and idle halting.
//
// Every kernel activity sets a synthetic instruction pointer inside the
// corresponding function of the domain's System.map (internal/ksym), so the
// hypervisor-side detector can classify a preempted vCPU exactly the way
// the paper does — from (RIP, symbol table) alone.
package guest

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Params are the guest kernel's timing constants. All durations are virtual
// nanoseconds; defaults follow DESIGN.md §6.
type Params struct {
	PLEWindow      simtime.Duration // spin time before a pause-loop exit fires
	AckSpinYield   simtime.Duration // spin time waiting for IPI acks before a voluntary yield
	IRQCost        simtime.Duration // hardirq handler execution time
	SoftIRQPerPkt  simtime.Duration // softirq cost per network packet
	TLBFlushCost   simtime.Duration // remote TLB flush handler execution time
	TLBInitCost    simtime.Duration // initiator-side shootdown setup cost
	ReschedIPICost simtime.Duration // scheduler_ipi handler execution time
	TimerIRQCost   simtime.Duration // timer interrupt handler execution time
	WakeCost       simtime.Duration // try_to_wake_up path cost
	RecvConsume    simtime.Duration // app-level cost to consume one packet
	GuestSlice     simtime.Duration // guest scheduler round-robin quantum
}

// DefaultParams returns the calibrated defaults.
func DefaultParams() Params {
	return Params{
		PLEWindow:      25 * simtime.Microsecond,
		AckSpinYield:   20 * simtime.Microsecond,
		IRQCost:        1 * simtime.Microsecond,
		SoftIRQPerPkt:  2 * simtime.Microsecond,
		TLBFlushCost:   1500 * simtime.Nanosecond,
		TLBInitCost:    1 * simtime.Microsecond,
		ReschedIPICost: 1 * simtime.Microsecond,
		TimerIRQCost:   1 * simtime.Microsecond,
		WakeCost:       700 * simtime.Nanosecond,
		RecvConsume:    1 * simtime.Microsecond,
		GuestSlice:     3 * simtime.Millisecond,
	}
}

// Packet is a network packet as seen by the guest.
type Packet struct {
	Seq    uint64
	Flow   int
	Bytes  int
	SentAt simtime.Time
	Span   obs.SpanRef // open net_rx span riding the packet (0: none)
	// ReqSpan is the open end-to-end request span when the packet carries an
	// open-loop serving request (0: none). It rides past the net_rx span's
	// close at consume, through service, to the reply's transmission.
	ReqSpan obs.SpanRef
}

// NetDevice is the guest-facing interface of a virtual NIC (implemented by
// internal/vnet). Fetch drains received packets from the device ring;
// Transmit sends guest->world traffic. The slice Fetch returns is only
// valid until the next Fetch call (the device may reuse its backing
// storage); the engine fully delivers each batch before fetching again.
type NetDevice interface {
	Fetch(max int) []Packet
	Transmit(bytes int, now simtime.Time)
}

// BlockDevice is the guest-facing interface of a virtual disk (implemented
// by internal/vdisk). Submit queues one I/O; the device invokes done when
// the request completes (NVMe-style: the completion interrupt is raised on
// the submitting vCPU's queue).
type BlockDevice interface {
	Submit(bytes int, write bool, done func())
}

// Socket is a minimal in-kernel receive queue connecting the softIRQ path
// to one application thread.
type Socket struct {
	k    *Kernel
	Flow int
	// The receive queue is a ring over buf, whose length is zero or a power
	// of two: head indexes the oldest packet and n counts the queued ones.
	// A full ring doubles, so delivery and consumption allocate nothing
	// once buf has grown to the deepest backlog.
	buf    []Packet
	head   int
	n      int
	waiter *Thread
	// OnAppConsume fires when the application-level thread consumes a
	// packet (iPerf accounts throughput and jitter here; TCP-like flows
	// open their window here).
	OnAppConsume func(p Packet, now simtime.Time)
	Delivered    uint64
	Consumed     uint64
}

// Len returns the number of buffered packets.
func (s *Socket) Len() int { return s.n }

// socketRingMin is the ring size a socket's first packet allocates.
const socketRingMin = 16

// deliver queues a packet (softIRQ context) and returns the waiter to wake,
// if any.
func (s *Socket) deliver(p Packet) *Thread {
	if s.n == len(s.buf) {
		s.grow()
	}
	s.buf[(s.head+s.n)&(len(s.buf)-1)] = p
	s.n++
	s.Delivered++
	w := s.waiter
	s.waiter = nil
	return w
}

// pop dequeues the oldest packet; the queue must not be empty.
func (s *Socket) pop() Packet {
	p := s.buf[s.head]
	s.head = (s.head + 1) & (len(s.buf) - 1)
	s.n--
	return p
}

// grow doubles the full ring, unwrapping it to the front of the new one.
func (s *Socket) grow() {
	nb := make([]Packet, max(2*len(s.buf), socketRingMin))
	k := copy(nb, s.buf[s.head:])
	copy(nb[k:], s.buf[:s.head])
	s.buf, s.head = nb, 0
}

// Kernel is the guest OS instance of one domain.
type Kernel struct {
	HV     *hv.Hypervisor
	Dom    *hv.Domain
	Clock  *simtime.Clock
	Sym    *ksym.Table
	Params Params

	VCPUs       []*VCPU
	threads     []*Thread
	locks       map[string]*SpinLock
	sockets     map[int]*Socket
	nic         NetDevice
	disk        BlockDevice
	userRegions []ksym.UserRegion

	// LockStat records spinlock wait time (ns) per lock class, the
	// simulator's Lockstat (paper Table 4a).
	LockStat map[string]*metrics.Histogram
	// TLBStat records shootdown completion latency (ns), the simulator's
	// Systemtap probe on native_flush_tlb_others (paper Table 4b).
	TLBStat *metrics.Histogram

	// LockStall, when set (fault injection), maps an acquired lock's class
	// and nominal critical-section duration to the duration actually spent
	// holding the lock. nil means no amplification.
	LockStall func(class string, d simtime.Duration) simtime.Duration

	// OnThreadExit, when set, fires when any thread finishes its program.
	OnThreadExit func(t *Thread)

	addr     addrs   // resolved symbol addresses for hot-path RIP updates
	shootBuf []*VCPU // reusable live-set snapshot for TLB shootdowns
}

// addrs caches the instruction pointers for guest activities.
type addrs struct {
	user        uint64
	halt        uint64
	spinSlow    uint64
	flushOthers uint64
	callMany    uint64
	flushFunc   uint64
	schedIPI    uint64
	ttwu        uint64
	e1000       uint64
	netRx       uint64
	percpuIRQ   uint64
}

// NewKernel boots a guest kernel with nvcpus virtual CPUs on hypervisor h.
// The domain is created internally with sym's System.map attached (the
// paper's "guest provides its symbol table" step); the blob is the table's
// shared one, formatted once per table.
func NewKernel(h *hv.Hypervisor, name string, nvcpus int, sym *ksym.Table, p Params) *Kernel {
	if nvcpus <= 0 {
		panic("guest: need at least one vCPU")
	}
	dom := h.NewDomain(name, sym.SystemMap())
	k := &Kernel{
		HV:       h,
		Dom:      dom,
		Clock:    h.Clock,
		Sym:      sym,
		Params:   p,
		locks:    make(map[string]*SpinLock),
		sockets:  make(map[int]*Socket),
		LockStat: make(map[string]*metrics.Histogram),
		TLBStat:  metrics.NewHistogram(8),
		addr: addrs{
			user:        ksym.UserRIP,
			halt:        sym.InnerAddr("native_safe_halt"),
			spinSlow:    sym.InnerAddr("native_queued_spin_lock_slowpath"),
			flushOthers: sym.InnerAddr("native_flush_tlb_others"),
			callMany:    sym.InnerAddr("smp_call_function_many"),
			flushFunc:   sym.InnerAddr("flush_tlb_func"),
			schedIPI:    sym.InnerAddr("scheduler_ipi"),
			ttwu:        sym.InnerAddr("ttwu_do_activate"),
			e1000:       sym.InnerAddr("e1000_intr"),
			netRx:       sym.InnerAddr("net_rx_action"),
			percpuIRQ:   sym.InnerAddr("handle_percpu_irq"),
		},
	}
	for i := 0; i < nvcpus; i++ {
		vc := &VCPU{k: k, idx: i, rip: k.addr.halt}
		// Bind the progress event once; armEv re-arms it in place with the
		// kind fireEv dispatches on, so no fire allocates.
		k.Clock.Bind(&vc.ev, evOpDone, vc.fireEv)
		vc.hvv = h.AddVCPU(dom, vc)
		k.VCPUs = append(k.VCPUs, vc)
	}
	return k
}

// Lock returns (creating on first use) the named kernel lock. The class
// groups locks for Lockstat reporting ("Runqueue", "Dentry", ...).
func (k *Kernel) Lock(name, class, bodyFn string) *SpinLock {
	if l, ok := k.locks[name]; ok {
		return l
	}
	l := &SpinLock{
		k:     k,
		name:  name,
		class: class,
		body:  k.Sym.InnerAddr(bodyFn),
		stat:  k.lockStat(class),
	}
	k.locks[name] = l
	return l
}

// lockStat returns the interned LockStat histogram for a class, creating it
// on first use.
func (k *Kernel) lockStat(class string) *metrics.Histogram {
	h, ok := k.LockStat[class]
	if !ok {
		h = metrics.NewHistogram(8)
		k.LockStat[class] = h
	}
	return h
}

// UserCSBase is where synthetic user-level critical regions are laid out.
const UserCSBase uint64 = 0x00600000

// UserSpinRIP is the instruction pointer of a thread spinning on a
// user-level lock (outside any registered region).
const UserSpinRIP uint64 = ksym.UserRIP + 0x100

// UserLock returns (creating on first use) an application-level spinlock
// whose critical section executes in a dedicated user-space region. The
// region is recorded so it can be registered with the hypervisor through
// the paper's §4.4 interface (Kernel.UserRegions).
func (k *Kernel) UserLock(name, class string) *SpinLock {
	if l, ok := k.locks[name]; ok {
		return l
	}
	lo := UserCSBase + uint64(len(k.userRegions))*0x10000
	l := &SpinLock{
		k:     k,
		name:  name,
		class: class,
		body:  lo + 16,
		user:  true,
		stat:  k.lockStat(class),
	}
	k.locks[name] = l
	k.userRegions = append(k.userRegions, ksym.UserRegion{Name: name, Lo: lo, Hi: lo + 0x10000})
	return l
}

// UserRegions returns the user-level critical regions declared by this
// guest's applications — the data the §4.4 interface hands the hypervisor.
func (k *Kernel) UserRegions() []ksym.UserRegion {
	out := make([]ksym.UserRegion, len(k.userRegions))
	copy(out, k.userRegions)
	return out
}

// RWSem returns (creating on first use) a named sleeping lock — an
// rwsem/mutex whose contended waiters block instead of spinning.
func (k *Kernel) RWSem(name, class, bodyFn string) *SpinLock {
	l := k.Lock(name, class, bodyFn)
	l.sleeping = true
	return l
}

// NewSocket creates the receive socket for a flow.
func (k *Kernel) NewSocket(flow int) *Socket {
	if _, ok := k.sockets[flow]; ok {
		panic(fmt.Sprintf("guest: duplicate socket for flow %d", flow))
	}
	s := &Socket{k: k, Flow: flow}
	k.sockets[flow] = s
	return s
}

// AttachNIC registers the domain's virtual NIC.
func (k *Kernel) AttachNIC(dev NetDevice) { k.nic = dev }

// NetPktsInFlight counts packets fetched from the NIC ring but not yet
// delivered to a socket: the batch held by an in-flight (possibly
// preempted) softirq handler. A residency term of the request conservation
// law internal/check verifies.
func (k *Kernel) NetPktsInFlight() int {
	n := 0
	for _, v := range k.VCPUs {
		if v.irq != nil && v.irq.vec == hv.VecNet && v.irq.stage == 1 {
			n += len(v.irq.pkts)
		}
	}
	return n
}

// AttachDisk registers the domain's virtual block device.
func (k *Kernel) AttachDisk(dev BlockDevice) { k.disk = dev }

// Threads returns all threads (including finished ones).
func (k *Kernel) Threads() []*Thread { return k.threads }

// NewThread creates a thread on vCPU vcpuIdx running prog. The thread
// starts Ready; call Start (or StartAll) to begin execution.
func (k *Kernel) NewThread(vcpuIdx int, name string, prog Program) *Thread {
	vc := k.VCPUs[vcpuIdx]
	t := &Thread{
		ID:   len(k.threads),
		Name: name,
		vc:   vc,
		prog: prog,
	}
	// Pre-bound completion callbacks for blocking ops, so OpSleep/OpDisk
	// don't allocate a fresh closure per operation.
	id, tv := uint64(t.ID), vc.hvv
	t.timerFn = func() { k.HV.DeliverLocal(tv, hv.VecTimer, id) }
	t.diskFn = func() {
		// Completion raises a per-queue MSI on the submitting vCPU.
		k.HV.InjectPIRQTo(tv, hv.VecDisk, id)
	}
	k.threads = append(k.threads, t)
	t.state = ThreadReady
	vc.runq = append(vc.runq, t)
	vc.live++
	return t
}

// StartAll wakes every vCPU that has runnable threads. Call after the
// hypervisor is started.
func (k *Kernel) StartAll() {
	for _, vc := range k.VCPUs {
		if len(vc.runq) > 0 {
			k.HV.Wake(vc.hvv, false)
		}
	}
}
