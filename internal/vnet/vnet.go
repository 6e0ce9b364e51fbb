// Package vnet models the virtualized network path of the paper's I/O
// experiments: a virtual NIC with a bounded receive ring that raises
// physical IRQs into the hypervisor, plus iPerf-like traffic generators —
// a paced UDP stream (RFC 1889 jitter, goodput, loss) and a windowed
// TCP-like stream whose sender is clocked by application-level
// consumption. The delivery chain is exactly the paper's Figure 2:
// packet → pIRQ → hypervisor → vIRQ → guest hardirq → softIRQ → socket →
// user-thread wakeup.
package vnet

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/metrics"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// DefaultRingSize is the RX descriptor ring size (e1000 default 256).
const DefaultRingSize = 256

// DefaultIRQReassert is the interrupt-moderation re-assert interval: while
// admitted packets sit unfetched, the NIC re-raises its physical IRQ at
// this period (the hardware rx-usecs moderation timer). Without it the
// coalescing latch is purely edge-triggered, and a guest preempted between
// the IRQ's delivery and its softirq Fetch leaves every later arrival
// silently coalesced behind a latch nobody will clear — the hypervisor
// never sees another pIRQ for the backlog, so IRQ-triggered acceleration
// (core.Controller) has no edge to act on until the guest's next credit
// slice, tens of milliseconds away.
const DefaultIRQReassert = 100 * simtime.Microsecond

// NIC is a virtual network interface attached to one domain. It implements
// guest.NetDevice. The RX ring is a circular buffer (growing amortized up
// to its fixed capacity) drained into a reusable scratch slice, so the
// softirq-path Fetch is allocation-free at steady state.
type NIC struct {
	h   *hv.Hypervisor
	dom *hv.Domain

	// RX ring: a circular window over buf. head indexes the oldest packet,
	// n is the occupancy; buf doubles under admission pressure until it
	// reaches ringCap, so a huge configured capacity costs nothing unless
	// the ring actually backs up that far.
	buf     []guest.Packet
	head    int
	n       int
	ringCap int

	// out is Fetch's reusable scratch. The returned batch is only valid
	// until the next Fetch, which is safe because one NIC's softirq
	// handlers are serialized: every net pIRQ routes to the domain's single
	// IRQVCPU, so a batch is fully delivered before the next fetch starts.
	out []guest.Packet

	irqRaised bool // NAPI-style coalescing: one IRQ until the ring drains
	// reassert is the interrupt-moderation re-assert interval,
	// DefaultIRQReassert; <= 0 disables re-assertion (pure edge-triggered
	// coalescing). reassertEv is the moderation timer, owned and bound to
	// fireReassert once, in NewNIC.
	reassert   simtime.Duration
	reassertEv simtime.Event

	RxPackets uint64
	RxDrops   uint64
	TxBytes   uint64
	IRQs      uint64
	Reasserts uint64 // IRQs re-raised by the moderation timer
}

// NewNIC creates a NIC for dom with the given RX ring capacity
// (DefaultRingSize if 0).
func NewNIC(h *hv.Hypervisor, dom *hv.Domain, ringCap int) *NIC {
	if ringCap <= 0 {
		ringCap = DefaultRingSize
	}
	n := &NIC{h: h, dom: dom, ringCap: ringCap, reassert: DefaultIRQReassert}
	h.Clock.Bind(&n.reassertEv, kindReassert, n.fireReassert)
	return n
}

// RingLen returns the current RX ring occupancy.
func (n *NIC) RingLen() int { return n.n }

// Rx delivers one packet from the wire into the RX ring, raising a
// physical IRQ unless one is already outstanding. A full ring drops the
// packet (tail drop), which is how sustained guest scheduling delays turn
// into UDP loss; Rx reports false so the sender can account the drop.
func (n *NIC) Rx(p guest.Packet) bool {
	if n.n >= n.ringCap {
		n.RxDrops++
		return false
	}
	if o := n.h.Obs; o != nil {
		// The net_rx span opens at ring admission and rides the packet to
		// application-level consume (Figure 2's full delivery chain); the
		// guest cancels it if the packet is dropped for want of a listener.
		p.Span = o.Begin(obs.SpanNetRx, int16(n.dom.ID), int16(n.dom.IRQVCPU), p.Seq, n.h.Clock.Now())
	}
	if n.n == len(n.buf) {
		n.grow()
	}
	n.buf[(n.head+n.n)%len(n.buf)] = p
	n.n++
	n.RxPackets++
	if !n.irqRaised {
		n.irqRaised = true
		n.IRQs++
		n.h.InjectPIRQ(n.dom, hv.VecNet, 0)
	} else {
		// IRQ already signaled for this backlog: coalesce, but keep the
		// moderation timer armed so an unserviced ring re-asserts.
		n.armReassert()
	}
	return true
}

// armReassert schedules the moderation re-assert if not already pending.
func (n *NIC) armReassert() {
	if n.reassert <= 0 || n.reassertEv.Pending() {
		return
	}
	n.reassertEv.Arm(n.reassert)
}

// fireReassert re-raises the physical IRQ if the backlog is still
// unserviced, and re-arms so a long guest stall keeps producing edges.
func (n *NIC) fireReassert() {
	if n.n == 0 || !n.irqRaised {
		return // ring drained since arming; nothing to re-assert
	}
	n.IRQs++
	n.Reasserts++
	n.h.InjectPIRQ(n.dom, hv.VecNet, 0)
	n.armReassert()
}

// grow doubles the circular buffer (bounded by the ring capacity),
// unwrapping the occupied window to the front.
func (n *NIC) grow() {
	size := 2 * len(n.buf)
	if size == 0 {
		size = 64
	}
	if size > n.ringCap {
		size = n.ringCap
	}
	nb := make([]guest.Packet, size)
	for i := 0; i < n.n; i++ {
		nb[i] = n.buf[(n.head+i)%len(n.buf)]
	}
	n.buf = nb
	n.head = 0
}

// Fetch implements guest.NetDevice: the softIRQ handler drains up to max
// packets. If packets remain, the IRQ is immediately re-raised (NAPI
// re-poll); otherwise the coalescing latch clears. The returned slice is
// reused by the next Fetch (see NIC.out) and performs no allocation at
// steady state.
func (n *NIC) Fetch(max int) []guest.Packet {
	k := n.n
	if k > max {
		k = max
	}
	if cap(n.out) < k {
		n.out = make([]guest.Packet, 0, len(n.buf))
	}
	out := n.out[:k]
	if k > 0 {
		first := len(n.buf) - n.head
		if first > k {
			first = k
		}
		copy(out[:first], n.buf[n.head:n.head+first])
		copy(out[first:], n.buf[:k-first])
		n.head = (n.head + k) % len(n.buf)
		n.n -= k
	}
	if o := n.h.Obs; o != nil {
		// The fetched packets leave the ring: their wait so far was ring
		// time; softirq processing starts now.
		now := n.h.Clock.Now()
		for _, p := range out {
			o.Stage(p.Span, obs.NetStageRing, now)
			o.Stage(p.ReqSpan, obs.ReqStageRing, now)
		}
	}
	if n.n > 0 {
		n.IRQs++
		n.h.InjectPIRQ(n.dom, hv.VecNet, 0)
	} else {
		n.irqRaised = false
	}
	return out
}

// Transmit implements guest.NetDevice (guest->world traffic; accounted,
// otherwise sunk).
func (n *NIC) Transmit(bytes int, now simtime.Time) {
	n.TxBytes += uint64(bytes)
}

var _ guest.NetDevice = (*NIC)(nil)

// kindReassert is the event kind of the NIC's IRQ re-assert timer.
var kindReassert = simtime.NewKind("nic-reassert")

// ---------------------------------------------------------------------------
// UDP stream
// ---------------------------------------------------------------------------

// UDPFlow is an iPerf-style paced UDP sender plus the receiver-side
// accounting (goodput, loss, RFC 1889 jitter at application consume time).
type UDPFlow struct {
	nic   *NIC
	clock *simtime.Clock
	ID    int

	PktBytes int
	RateBps  int64 // offered load in bits per second

	seq       uint64
	sendEvent *simtime.Event
	startedAt simtime.Time
	stopped   bool
	Jitter    metrics.Jitter
	SentBytes uint64
	Dropped   uint64 // tail-dropped at the full NIC ring
	RxBytes   uint64
	RxPackets uint64
	firstRx   simtime.Time
	lastRx    simtime.Time
	haveRx    bool
}

// NewUDPFlow creates a UDP flow towards dom's NIC. Attach must be called
// with the receiving socket before Start.
func NewUDPFlow(clock *simtime.Clock, nic *NIC, id, pktBytes int, rateBps int64) (*UDPFlow, error) {
	if pktBytes <= 0 {
		return nil, fmt.Errorf("vnet: UDP flow %d: packet size %d must be positive", id, pktBytes)
	}
	if rateBps <= 0 {
		return nil, fmt.Errorf("vnet: UDP flow %d: rate %d bps must be positive", id, rateBps)
	}
	return &UDPFlow{nic: nic, clock: clock, ID: id, PktBytes: pktBytes, RateBps: rateBps}, nil
}

// Attach wires the flow's receiver accounting into the guest socket.
func (f *UDPFlow) Attach(sock *guest.Socket) {
	sock.OnAppConsume = func(p guest.Packet, now simtime.Time) {
		f.RxBytes += uint64(p.Bytes)
		f.RxPackets++
		f.Jitter.ObserveTransit(int64(now - p.SentAt))
		if !f.haveRx {
			f.haveRx = true
			f.firstRx = now
		}
		f.lastRx = now
	}
}

// interval returns the pacing gap between packets.
func (f *UDPFlow) interval() simtime.Duration {
	return simtime.Duration(int64(f.PktBytes) * 8 * int64(simtime.Second) / f.RateBps)
}

// Start begins paced transmission until Stop (or forever).
func (f *UDPFlow) Start() {
	f.startedAt = f.clock.Now()
	f.sendOne()
}

func (f *UDPFlow) sendOne() {
	if f.stopped {
		return
	}
	f.seq++
	f.SentBytes += uint64(f.PktBytes)
	if !f.nic.Rx(guest.Packet{Seq: f.seq, Flow: f.ID, Bytes: f.PktBytes, SentAt: f.clock.Now()}) {
		f.Dropped++
	}
	f.sendEvent = f.clock.After(f.interval(), f.sendOne)
}

// Stop halts the sender.
func (f *UDPFlow) Stop() {
	f.stopped = true
	if f.sendEvent != nil {
		f.sendEvent.Cancel()
		f.sendEvent = nil
	}
}

// GoodputBps returns the application-level receive rate over the window
// observed between the first and last consumed packet. A single consumed
// packet leaves a zero-width window; that degenerate case falls back to
// the elapsed run time (Start to the consume), so a short run reports a
// defined rate instead of 0.
func (f *UDPFlow) GoodputBps() float64 {
	if !f.haveRx {
		return 0
	}
	win := f.lastRx - f.firstRx
	if win <= 0 {
		win = f.lastRx - f.startedAt
	}
	if win <= 0 {
		return 0
	}
	return float64(f.RxBytes*8) / win.Seconds()
}

// LossRate returns the fraction of offered packets actually lost — dropped
// at the full NIC ring. Packets still in flight (ring-resident, mid-softirq
// or queued in the socket, not yet consumed) are not loss, so a mid-run
// sample agrees with the end-of-run read instead of over-counting by the
// pipeline occupancy.
func (f *UDPFlow) LossRate() float64 {
	if f.seq == 0 {
		return 0
	}
	return float64(f.Dropped) / float64(f.seq)
}

// ---------------------------------------------------------------------------
// TCP-like stream
// ---------------------------------------------------------------------------

// TCPFlow is a windowed stream: at most Window segments are in flight, and
// a new segment is released only when the application consumes one
// (ack-clocked). Sends are additionally paced to the link rate. Guest
// scheduling delays therefore throttle the achieved bandwidth exactly as
// they throttle a real TCP connection's ack clock.
type TCPFlow struct {
	nic   *NIC
	clock *simtime.Clock
	ID    int

	PktBytes  int
	Window    int
	LinkBps   int64
	WireDelay simtime.Duration

	seq       uint64
	inflight  int
	nextTx    simtime.Time
	startedAt simtime.Time
	stopped   bool
	txQueued  bool

	RxBytes   uint64
	RxPackets uint64
	firstRx   simtime.Time
	lastRx    simtime.Time
	haveRx    bool
	Jitter    metrics.Jitter
}

// NewTCPFlow creates a TCP-like flow towards dom's NIC.
func NewTCPFlow(clock *simtime.Clock, nic *NIC, id, pktBytes, window int, linkBps int64, wireDelay simtime.Duration) (*TCPFlow, error) {
	if pktBytes <= 0 {
		return nil, fmt.Errorf("vnet: TCP flow %d: packet size %d must be positive", id, pktBytes)
	}
	if window <= 0 {
		return nil, fmt.Errorf("vnet: TCP flow %d: window %d must be positive", id, window)
	}
	if linkBps <= 0 {
		return nil, fmt.Errorf("vnet: TCP flow %d: link rate %d bps must be positive", id, linkBps)
	}
	return &TCPFlow{
		nic: nic, clock: clock, ID: id,
		PktBytes: pktBytes, Window: window, LinkBps: linkBps, WireDelay: wireDelay,
	}, nil
}

// Attach wires receiver accounting and the ack clock into the guest socket.
func (f *TCPFlow) Attach(sock *guest.Socket) {
	sock.OnAppConsume = func(p guest.Packet, now simtime.Time) {
		f.RxBytes += uint64(p.Bytes)
		f.RxPackets++
		f.Jitter.ObserveTransit(int64(now - p.SentAt))
		if !f.haveRx {
			f.haveRx = true
			f.firstRx = now
		}
		f.lastRx = now
		if f.inflight > 0 {
			f.inflight--
		}
		f.pump()
	}
}

// Start opens the window.
func (f *TCPFlow) Start() {
	f.startedAt = f.clock.Now()
	f.pump()
}

// Stop halts the sender.
func (f *TCPFlow) Stop() { f.stopped = true }

// pump sends as long as the window and link pacing allow.
func (f *TCPFlow) pump() {
	if f.stopped || f.txQueued {
		return
	}
	if f.inflight >= f.Window {
		return
	}
	now := f.clock.Now()
	if f.nextTx > now {
		f.txQueued = true
		f.clock.At(f.nextTx, func() {
			f.txQueued = false
			f.pump()
		})
		return
	}
	f.inflight++
	f.seq++
	gap := simtime.Duration(int64(f.PktBytes) * 8 * int64(simtime.Second) / f.LinkBps)
	f.nextTx = now + gap
	sentAt := now
	seq := f.seq
	f.clock.After(f.WireDelay, func() {
		f.nic.Rx(guest.Packet{Seq: seq, Flow: f.ID, Bytes: f.PktBytes, SentAt: sentAt})
	})
	f.pump()
}

// GoodputBps returns the application-level receive rate. A single consumed
// segment falls back to the elapsed run time, as in UDPFlow.GoodputBps.
func (f *TCPFlow) GoodputBps() float64 {
	if !f.haveRx {
		return 0
	}
	win := f.lastRx - f.firstRx
	if win <= 0 {
		win = f.lastRx - f.startedAt
	}
	if win <= 0 {
		return 0
	}
	return float64(f.RxBytes*8) / win.Seconds()
}

func (f *TCPFlow) String() string {
	return fmt.Sprintf("tcp flow %d: %d segs, %.1f Mbps", f.ID, f.RxPackets, f.GoodputBps()/1e6)
}
