// I/O mix: the paper's Figure 9 scenario. An iPerf server shares its only
// vCPU with a lookbusy hog, and that vCPU shares a pCPU with a second
// hog VM. The mixed vCPU is always runnable, so Xen's BOOST never fires
// and incoming packets wait out entire 30ms slices — until the
// micro-sliced mechanism migrates the vCPU at vIRQ-relay time.
//
//	go run ./examples/iomix
package main

import (
	"fmt"
	"log"

	microsliced "github.com/microslicedcore/microsliced"
)

// measure runs iPerf over proto on a 2-pCPU host for 2 simulated seconds.
// Mixed adds the lookbusy thread on the server's vCPU and the lookbusy VM,
// both pinned to pCPU 0; Static mode dedicates the other pCPU as the micro
// core.
func measure(proto string, mixed bool, mode microsliced.Mode) *microsliced.StreamStats {
	stagger := false
	s := microsliced.Scenario{
		PCPUs:       2,
		VMs:         []microsliced.VM{{Name: "iperf", VCPUs: 1, Stream: proto}},
		Mode:        mode,
		StaticCores: 1,
		Seconds:     2,
		Stagger:     &stagger,
	}
	if mixed {
		s.VMs[0].App = "lookbusy"
		s.VMs[0].Pins = []int{0}
		s.VMs = append(s.VMs, microsliced.VM{Name: "hog", App: "lookbusy", VCPUs: 1, Seed: 9, Pins: []int{0}})
	}
	r, err := microsliced.Simulate(s)
	if err != nil {
		log.Fatal(err)
	}
	return r.VM("iperf").Stream
}

func main() {
	fmt.Println("iPerf over a 1 Gbit link, 2s simulated")
	fmt.Printf("%-26s %12s %12s %10s\n", "configuration", "Mbit/s", "jitter(ms)", "loss")

	solo := measure("udp", false, microsliced.Off)
	fmt.Printf("%-26s %12.1f %12.4f %9.1f%%\n", "udp solo", solo.Mbps, solo.JitterMs, solo.Loss*100)

	mixed := measure("udp", true, microsliced.Off)
	fmt.Printf("%-26s %12.1f %12.4f %9.1f%%\n", "udp mixed (baseline)", mixed.Mbps, mixed.JitterMs, mixed.Loss*100)

	fixed := measure("udp", true, microsliced.Static)
	fmt.Printf("%-26s %12.1f %12.4f %9.1f%%\n", "udp mixed (u-sliced)", fixed.Mbps, fixed.JitterMs, fixed.Loss*100)

	tcpBase := measure("tcp", true, microsliced.Off)
	tcpFix := measure("tcp", true, microsliced.Static)
	fmt.Printf("%-26s %12.1f %12s %10s\n", "tcp mixed (baseline)", tcpBase.Mbps, "-", "-")
	fmt.Printf("%-26s %12.1f %12s %10s\n", "tcp mixed (u-sliced)", tcpFix.Mbps, "-", "-")

	fmt.Println("\nBOOST cannot help a runnable vCPU; relaying the vIRQ to the")
	fmt.Println("micro pool restores line rate and collapses jitter, exactly as")
	fmt.Println("in the paper's Figure 9.")
}
