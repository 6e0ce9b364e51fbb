package experiment

import (
	"fmt"
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/simtime"
	"github.com/microslicedcore/microsliced/internal/vnet"
	"github.com/microslicedcore/microsliced/internal/workload"
)

// I/O experiment parameters (paper §3.3, §6.2: 1 Gbit link, iPerf).
const (
	ioLinkBps   = 1_000_000_000
	ioUDPBytes  = 8192 // iPerf's default UDP datagram size
	ioTCPBytes  = 8192
	ioTCPWindow = 32
	ioWireDelay = 100 * simtime.Microsecond
	// ioRingCap reflects the effective buffering between netback and the
	// iPerf socket (~400 KB), which bounds how much of a scheduling gap
	// can be absorbed without UDP loss.
	ioRingCap = 48
)

// IOMeasure is one iPerf stream's read-out. The public facade exposes it
// as microsliced.StreamStats.
type IOMeasure struct {
	Proto    string  // "udp" or "tcp"
	Mbps     float64 // application-level goodput
	JitterMs float64 // peak RFC 1889 transit jitter
	Loss     float64 // fraction of datagrams dropped at the full NIC ring (udp)
}

// CheckStream rejects a VM's Stream that Run cannot build: an unknown
// protocol, or a Stream next to a Serve spec (a VM has one NIC).
func CheckStream(vm VMSpec) error {
	switch {
	case vm.Stream == "":
	case vm.Stream != "udp" && vm.Stream != "tcp":
		return fmt.Errorf("unknown stream protocol %q (want udp or tcp)", vm.Stream)
	case vm.Serve != nil:
		return fmt.Errorf("stream %q and Serve both need the VM's one NIC", vm.Stream)
	}
	return nil
}

// streamRig is one VM's iPerf stream: the server thread's app, whose units
// count consumed packets, and the flow's start and read-out.
type streamRig struct {
	app     *workload.App
	start   func()
	measure func() *IOMeasure
}

// buildStream composes a VM's iPerf stream: NIC, socket, server thread on
// vCPU 0 and the sender, which starts with the kernel. proto has passed
// CheckStream.
func buildStream(clock *simtime.Clock, h *hv.Hypervisor, k *guest.Kernel, proto string) (*streamRig, error) {
	nic := vnet.NewNIC(h, k.Dom, ioRingCap)
	k.AttachNIC(nic)
	sock := k.NewSocket(0)
	rig := &streamRig{app: workload.Empty("iperf", k)}
	if proto == "udp" {
		f, err := vnet.NewUDPFlow(clock, nic, 0, ioUDPBytes, ioLinkBps)
		if err != nil {
			return nil, err
		}
		f.Attach(sock)
		rig.start = f.Start
		rig.measure = func() *IOMeasure {
			return &IOMeasure{Proto: proto, Mbps: f.GoodputBps() / 1e6, JitterMs: f.Jitter.PeakMillis(), Loss: f.LossRate()}
		}
	} else {
		f, err := vnet.NewTCPFlow(clock, nic, 0, ioTCPBytes, ioTCPWindow, ioLinkBps, ioWireDelay)
		if err != nil {
			return nil, err
		}
		f.Attach(sock)
		rig.start = f.Start
		rig.measure = func() *IOMeasure {
			return &IOMeasure{Proto: proto, Mbps: f.GoodputBps() / 1e6, JitterMs: f.Jitter.PeakMillis()}
		}
	}
	workload.IperfServer(rig.app, 0, sock)
	return rig, nil
}

// ioSetup is the paper's I/O scenario on a 2-pCPU host: a 1-vCPU VM named
// "iperf" runs the iPerf server. When mixed, a lookbusy thread shares its
// vCPU and a lookbusy VM shares its pCPU (Figure 9b).
func ioSetup(proto string, mixed bool, cc core.Config, dur simtime.Duration) Setup {
	s := Setup{
		PCPUs:    2,
		VMs:      []VMSpec{{Name: "iperf", VCPUs: 1, Stream: proto}},
		Core:     cc,
		Duration: dur,
	}
	if mixed {
		s.VMs[0].App = "lookbusy"
		s.VMs[0].Pins = []int{0}
		s.VMs = append(s.VMs, VMSpec{Name: "hog", App: "lookbusy", VCPUs: 1, Seed: 9, Pins: []int{0}})
	}
	return s
}

// iperf returns the stream read-out of an ioSetup run.
func iperf(r *Result) IOMeasure { return *r.VM("iperf").Stream }

// ---------------------------------------------------------------------------
// Table 4c — iPerf latency and throughput, solo vs mixed co-run
// ---------------------------------------------------------------------------

// Table4cResult reproduces paper Table 4c.
type Table4cResult struct {
	Solo  IOMeasure
	Mixed IOMeasure
}

// Table4c measures iPerf (UDP) jitter and throughput solo vs mixed co-run
// on the vanilla hypervisor.
func Table4c(dur simtime.Duration) (*Table4cResult, error) {
	results, err := RunAll([]Setup{
		ioSetup("udp", false, offConfig(), dur),
		ioSetup("udp", true, offConfig(), dur),
	})
	if err != nil {
		return nil, err
	}
	return &Table4cResult{Solo: iperf(results[0]), Mixed: iperf(results[1])}, nil
}

// Render implements report.Renderer.
func (r *Table4cResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Table 4c: iPerf latency and throughput, solo vs mixed co-run",
		Columns: []string{"config", "jitter (ms)", "throughput (Mbit/s)", "loss"},
	}
	t.AddRow("solo", fmt.Sprintf("%.4f", r.Solo.JitterMs), fmt.Sprintf("%.1f", r.Solo.Mbps), fmt.Sprintf("%.3f", r.Solo.Loss))
	t.AddRow("mixed co-run", fmt.Sprintf("%.4f", r.Mixed.JitterMs), fmt.Sprintf("%.1f", r.Mixed.Mbps), fmt.Sprintf("%.3f", r.Mixed.Loss))
	t.Notes = append(t.Notes, "paper: solo 0.0043ms / 936.3 Mbit/s; mixed co-run 9.2507ms / 435.6 Mbit/s")
	t.Render(w)
}

// ---------------------------------------------------------------------------
// Figure 9 — mixed co-run I/O with micro-sliced cores
// ---------------------------------------------------------------------------

// Figure9Result reproduces paper Figure 9: TCP/UDP bandwidth and jitter of
// the mixed co-run under the baseline and the micro-sliced scheme.
type Figure9Result struct {
	BaselineTCP IOMeasure
	BaselineUDP IOMeasure
	MicroTCP    IOMeasure
	MicroUDP    IOMeasure
}

// Figure9 runs the mixed-VM I/O comparison. The micro-sliced configuration
// dedicates one micro core (machine has 2 pCPUs; both vCPUs are pinned to
// the other one) with I/O acceleration enabled.
func Figure9(dur simtime.Duration) (*Figure9Result, error) {
	micro := core.StaticConfig(1)
	results, err := RunAll([]Setup{
		ioSetup("tcp", true, offConfig(), dur),
		ioSetup("udp", true, offConfig(), dur),
		ioSetup("tcp", true, micro, dur),
		ioSetup("udp", true, micro, dur),
	})
	if err != nil {
		return nil, err
	}
	return &Figure9Result{
		BaselineTCP: iperf(results[0]),
		BaselineUDP: iperf(results[1]),
		MicroTCP:    iperf(results[2]),
		MicroUDP:    iperf(results[3]),
	}, nil
}

// Render implements report.Renderer.
func (r *Figure9Result) Render(w io.Writer) {
	t := report.Table{
		Title:   "Figure 9: mixed co-run I/O performance (iperf+lookbusy vs lookbusy, shared pCPU)",
		Columns: []string{"config", "TCP Mbit/s", "UDP Mbit/s", "UDP jitter (ms)", "UDP loss"},
	}
	t.AddRow("baseline",
		fmt.Sprintf("%.1f", r.BaselineTCP.Mbps),
		fmt.Sprintf("%.1f", r.BaselineUDP.Mbps),
		fmt.Sprintf("%.4f", r.BaselineUDP.JitterMs),
		fmt.Sprintf("%.3f", r.BaselineUDP.Loss))
	t.AddRow("u-sliced",
		fmt.Sprintf("%.1f", r.MicroTCP.Mbps),
		fmt.Sprintf("%.1f", r.MicroUDP.Mbps),
		fmt.Sprintf("%.4f", r.MicroUDP.JitterMs),
		fmt.Sprintf("%.3f", r.MicroUDP.Loss))
	t.Notes = append(t.Notes, "paper: TCP bandwidth improves and jitter drops from >8ms to near 0 under u-slicing")
	t.Render(w)
}
