package vnet

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// recvLoop is an iPerf-server-like program: receive forever.
type recvLoop struct{ sock *guest.Socket }

func (p *recvLoop) Next(now simtime.Time, op *guest.Op) {
	*op = guest.Op{Kind: guest.OpRecv, Sock: p.sock}
}

// bareDom creates a minimal 1-vCPU domain for NIC-only tests.
func bareDom(h *hv.Hypervisor) *hv.Domain {
	return guest.NewKernel(h, "vm0", 1, ksym.Generate(7), guest.DefaultParams()).Dom
}

// busyLoop burns CPU forever.
type busyLoop struct{}

func (p *busyLoop) Next(now simtime.Time, op *guest.Op) {
	*op = guest.Op{Kind: guest.OpCompute, Dur: simtime.Millisecond}
}

func ioSetup(t *testing.T, pcpus int) (*simtime.Clock, *hv.Hypervisor, *guest.Kernel, *NIC, *guest.Socket) {
	t.Helper()
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = pcpus
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "server", 1, ksym.Generate(1), guest.DefaultParams())
	nic := NewNIC(h, k.Dom, 0)
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	k.NewThread(0, "iperf", &recvLoop{sock: sock})
	return clock, h, k, nic, sock
}

func TestRingOverflowDrops(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 4)
	for i := 0; i < 10; i++ {
		nic.Rx(guest.Packet{Seq: uint64(i), Bytes: 1500})
	}
	if nic.RxPackets != 4 || nic.RxDrops != 6 {
		t.Fatalf("rx=%d drops=%d", nic.RxPackets, nic.RxDrops)
	}
	if nic.RingLen() != 4 {
		t.Fatalf("ring=%d", nic.RingLen())
	}
}

func TestIRQCoalescing(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 0)
	for i := 0; i < 5; i++ {
		nic.Rx(guest.Packet{Seq: uint64(i), Bytes: 100})
	}
	if nic.IRQs != 1 {
		t.Fatalf("IRQs=%d, want 1 (coalesced)", nic.IRQs)
	}
	got := nic.Fetch(64)
	if len(got) != 5 {
		t.Fatalf("fetched %d", len(got))
	}
	// Ring drained: the next packet raises a fresh IRQ.
	nic.Rx(guest.Packet{Seq: 99, Bytes: 100})
	if nic.IRQs != 2 {
		t.Fatalf("IRQs=%d, want 2", nic.IRQs)
	}
}

func TestFetchRepollWhenBacklogged(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 0)
	for i := 0; i < 100; i++ {
		nic.Rx(guest.Packet{Seq: uint64(i), Bytes: 100})
	}
	got := nic.Fetch(64)
	if len(got) != 64 || nic.RingLen() != 36 {
		t.Fatalf("fetch=%d ring=%d", len(got), nic.RingLen())
	}
	if nic.IRQs != 2 {
		t.Fatalf("IRQs=%d, want re-poll IRQ", nic.IRQs)
	}
	got = nic.Fetch(64)
	if len(got) != 36 || nic.RingLen() != 0 {
		t.Fatalf("second fetch=%d ring=%d", len(got), nic.RingLen())
	}
}

func TestUDPSoloNearOfferedLoad(t *testing.T) {
	clock, h, k, nic, sock := ioSetup(t, 2)
	flow, err := NewUDPFlow(clock, nic, 0, 1500, 300e6) // 300 Mbit to keep event count modest
	if err != nil {
		t.Fatal(err)
	}
	flow.Attach(sock)
	h.Start()
	k.StartAll()
	flow.Start()
	clock.RunUntil(simtime.Second)
	flow.Stop()
	clock.RunUntil(clock.Now() + 10*simtime.Millisecond)
	if flow.LossRate() > 0.01 {
		t.Fatalf("solo loss %.3f", flow.LossRate())
	}
	good := flow.GoodputBps()
	if good < 290e6 || good > 310e6 {
		t.Fatalf("solo goodput %.1f Mbps, want ~300", good/1e6)
	}
	// Idle receiver: jitter well under a millisecond, even at its peak.
	if flow.Jitter.PeakMillis() > 0.1 {
		t.Fatalf("solo peak jitter %.4f ms", flow.Jitter.PeakMillis())
	}
}

func TestUDPMixedCoRunSuffers(t *testing.T) {
	// The paper's Table 4c shape: iperf+lookbusy on one vCPU, a lookbusy
	// VM on the same pCPU: jitter and goodput collapse without boosting.
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 1
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "mixed", 1, ksym.Generate(1), guest.DefaultParams())
	nic := NewNIC(h, k.Dom, 0)
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	k.NewThread(0, "iperf", &recvLoop{sock: sock})
	k.NewThread(0, "lookbusy", &busyLoop{})
	hog := guest.NewKernel(h, "hogvm", 1, ksym.Generate(2), guest.DefaultParams())
	hog.NewThread(0, "lookbusy", &busyLoop{})

	flow, err := NewUDPFlow(clock, nic, 0, 1500, 300e6)
	if err != nil {
		t.Fatal(err)
	}
	flow.Attach(sock)
	h.Start()
	k.StartAll()
	hog.StartAll()
	flow.Start()
	clock.RunUntil(2 * simtime.Second)
	flow.Stop()
	if flow.Jitter.PeakMillis() < 1 {
		t.Fatalf("mixed co-run peak jitter %.4f ms, want >= 1ms (VTD delays)", flow.Jitter.PeakMillis())
	}
	if flow.LossRate() < 0.2 {
		t.Fatalf("mixed co-run loss %.3f, want heavy ring-overflow loss", flow.LossRate())
	}
}

func TestTCPWindowNeverExceeded(t *testing.T) {
	clock, h, k, nic, sock := ioSetup(t, 2)
	flow, err := NewTCPFlow(clock, nic, 0, 1500, 16, 1e9, 50*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	flow.Attach(sock)
	h.Start()
	k.StartAll()
	flow.Start()
	for i := 0; i < 200; i++ {
		clock.RunUntil(clock.Now() + simtime.Millisecond)
		if flow.inflight > flow.Window {
			t.Fatalf("inflight %d > window %d", flow.inflight, flow.Window)
		}
	}
	if flow.RxPackets == 0 {
		t.Fatal("no TCP progress")
	}
}

func TestTCPSoloNearLineRate(t *testing.T) {
	clock, h, k, nic, sock := ioSetup(t, 2)
	flow, err := NewTCPFlow(clock, nic, 0, 1500, 64, 1e9, 50*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	flow.Attach(sock)
	h.Start()
	k.StartAll()
	flow.Start()
	clock.RunUntil(simtime.Second)
	good := flow.GoodputBps()
	// The guest consume path costs ~3us per 1500B segment, capping the
	// app-level rate near 1 Gbit on an idle machine; accept >= 60% of line.
	if good < 600e6 {
		t.Fatalf("solo TCP goodput %.1f Mbps", good/1e6)
	}
	if flow.String() == "" {
		t.Fatal("empty String")
	}
}

func TestTCPAckClockStallsWhenGuestStarved(t *testing.T) {
	// Same mixed co-run: the TCP ack clock throttles hard.
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 1
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "mixed", 1, ksym.Generate(1), guest.DefaultParams())
	nic := NewNIC(h, k.Dom, 0)
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	k.NewThread(0, "iperf", &recvLoop{sock: sock})
	k.NewThread(0, "lookbusy", &busyLoop{})
	hog := guest.NewKernel(h, "hogvm", 1, ksym.Generate(2), guest.DefaultParams())
	hog.NewThread(0, "lookbusy", &busyLoop{})

	solo := func() float64 {
		c2, h2, k2, nic2, sock2 := ioSetup(t, 2)
		f2, err := NewTCPFlow(c2, nic2, 0, 1500, 64, 1e9, 50*simtime.Microsecond)
		if err != nil {
			t.Fatal(err)
		}
		f2.Attach(sock2)
		h2.Start()
		k2.StartAll()
		f2.Start()
		c2.RunUntil(simtime.Second)
		return f2.GoodputBps()
	}()

	flow, err := NewTCPFlow(clock, nic, 0, 1500, 64, 1e9, 50*simtime.Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	flow.Attach(sock)
	h.Start()
	k.StartAll()
	hog.StartAll()
	flow.Start()
	clock.RunUntil(2 * simtime.Second)
	mixed := flow.GoodputBps()
	if mixed >= solo*0.7 {
		t.Fatalf("mixed TCP %.1f Mbps vs solo %.1f Mbps — expected heavy degradation",
			mixed/1e6, solo/1e6)
	}
}

func TestUDPPacingInterval(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 1<<20)
	flow, err := NewUDPFlow(clock, nic, 0, 1500, 12e6) // 1500B at 12 Mbit => 1ms gap
	if err != nil {
		t.Fatal(err)
	}
	if got := flow.interval(); got != simtime.Millisecond {
		t.Fatalf("interval %v, want 1ms", got)
	}
	flow.Start()
	clock.RunUntil(10 * simtime.Millisecond)
	flow.Stop()
	if nic.RxPackets < 10 || nic.RxPackets > 12 {
		t.Fatalf("sent %d packets in 10ms", nic.RxPackets)
	}
	clock.RunUntil(20 * simtime.Millisecond)
	if nic.RxPackets > 12 {
		t.Fatal("Stop did not halt the sender")
	}
}

func TestFlowConstructorsValidate(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	nic := NewNIC(h, bareDom(h), 0)
	if _, err := NewUDPFlow(clock, nic, 0, 0, 1e9); err == nil {
		t.Fatal("UDP flow accepted zero packet size")
	}
	if _, err := NewUDPFlow(clock, nic, 0, 1500, 0); err == nil {
		t.Fatal("UDP flow accepted zero rate")
	}
	if _, err := NewTCPFlow(clock, nic, 0, 1500, 0, 1e9, 0); err == nil {
		t.Fatal("TCP flow accepted zero window")
	}
	if _, err := NewTCPFlow(clock, nic, 0, 0, 16, 1e9, 0); err == nil {
		t.Fatal("TCP flow accepted zero packet size")
	}
	if _, err := NewTCPFlow(clock, nic, 0, 1500, 16, 0, 0); err == nil {
		t.Fatal("TCP flow accepted zero link rate")
	}
}
