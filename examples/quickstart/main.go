// Quickstart: consolidate a mail server with a CPU hog at 2:1, then watch
// what one micro-sliced core does to it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"

	microsliced "github.com/microslicedcore/microsliced"
)

func main() {
	// Two 12-vCPU VMs share 12 pCPUs: exim (kernel-intensive mail server)
	// against swaptions (pure computation).
	pair := []microsliced.VM{{App: "exim"}, {App: "swaptions"}}

	baseline, err := microsliced.Simulate(microsliced.Scenario{
		VMs: pair, Mode: microsliced.Off, Seconds: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	accelerated, err := microsliced.Simulate(microsliced.Scenario{
		VMs: pair, Mode: microsliced.Static, StaticCores: 1, Seconds: 2,
	})
	if err != nil {
		log.Fatal(err)
	}

	b, a := baseline.VM("exim"), accelerated.VM("exim")
	sb, sa := baseline.VM("swaptions"), accelerated.VM("swaptions")

	fmt.Println("exim + swaptions, 12 pCPUs, 2:1 consolidation, 2s simulated")
	fmt.Printf("%-28s %12s %12s\n", "", "baseline", "1 ucore")
	fmt.Printf("%-28s %12d %12d\n", "exim messages", b.WorkUnits, a.WorkUnits)
	fmt.Printf("%-28s %12d %12d\n", "exim spinlock yields", b.YieldsSpinlock, a.YieldsSpinlock)
	fmt.Printf("%-28s %12d %12d\n", "swaptions bursts", sb.WorkUnits, sa.WorkUnits)
	fmt.Println()
	fmt.Printf("exim throughput gain:    %.2fx\n", float64(a.WorkUnits)/float64(b.WorkUnits))
	fmt.Printf("swaptions slowdown:      %.1f%%\n",
		(float64(sb.WorkUnits)/float64(sa.WorkUnits)-1)*100)
	fmt.Printf("detector migrations:     %d\n", accelerated.DetectorCounters["migrate.ok"])

	fmt.Println("\ntop critical symbols the hypervisor saw at preempted vCPUs:")
	hits := accelerated.CriticalSymbolHits
	syms := make([]string, 0, len(hits))
	for sym := range hits {
		syms = append(syms, sym)
	}
	// Most hits first, ties by name, so the list does not follow map order.
	sort.Slice(syms, func(i, j int) bool {
		if hits[syms[i]] != hits[syms[j]] {
			return hits[syms[i]] > hits[syms[j]]
		}
		return syms[i] < syms[j]
	})
	for _, sym := range syms[:min(5, len(syms))] {
		fmt.Printf("   %-36s %d\n", sym, hits[sym])
	}
}
