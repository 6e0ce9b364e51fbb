package experiment

import (
	"fmt"
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/rivals"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// Rival selects a prior-work system in place of the paper's mechanism.
type Rival string

// Rival systems (paper Table 1).
const (
	RivalNone    Rival = ""
	RivalFixed   Rival = "fixed-usliced"
	RivalVTurbo  Rival = "vturbo"
	RivalVTRS    Rival = "vtrs"
	RivalCoSched Rival = "cosched"
)

// rivalSystems installs each rival on a freshly built hypervisor and
// returns its start function. A new rival is a constant and an entry here.
var rivalSystems = map[Rival]func(*hv.Hypervisor) func(){
	RivalFixed:   func(h *hv.Hypervisor) func() { return rivals.NewFixedMicroSliced(h, 100*simtime.Microsecond).Start },
	RivalVTurbo:  func(h *hv.Hypervisor) func() { return rivals.NewVTurbo(h, 1).Start },
	RivalVTRS:    func(h *hv.Hypervisor) func() { return rivals.NewVTRS(h).Start },
	RivalCoSched: func(h *hv.Hypervisor) func() { return rivals.NewCoSched(h, 0).Start },
}

// ParseRival lowers a rival name to the Rival a Setup runs: "" is
// RivalNone, and a name no system answers to is an error.
func ParseRival(name string) (Rival, error) {
	r := Rival(name)
	if _, ok := rivalSystems[r]; !ok && r != RivalNone {
		return RivalNone, fmt.Errorf("unknown rival %q", name)
	}
	return r, nil
}

// attachRival installs a rival system on a freshly built hypervisor and
// returns its start function.
func attachRival(h *hv.Hypervisor, r Rival) (func(), error) {
	install, ok := rivalSystems[r]
	if !ok {
		return nil, fmt.Errorf("experiment: unknown rival %q", r)
	}
	return install(h), nil
}

// Table1Row is one system's outcome across the three symptom scenarios.
type Table1Row struct {
	System string
	// LockGain: exim throughput vs baseline (lock-holder preemption).
	LockGain float64
	// TLBGain: dedup throughput vs baseline (one-to-many IPIs).
	TLBGain float64
	// MixedIOGain: mixed-vCPU iPerf TCP bandwidth vs baseline.
	MixedIOGain float64
	// CoRunnerCost: swaptions normalized execution time in the lock
	// scenario (>1 is worse) — the price of the mitigation.
	CoRunnerCost float64
}

// Table1Result quantifies the paper's Table 1: every prior approach
// against the flexible micro-sliced cores on the three symptom classes.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 measures baseline, the three implemented rivals, and the paper's
// mechanism (static best and dynamic) on the lock, TLB and mixed-I/O
// symptom scenarios.
func Table1(dur simtime.Duration) (*Table1Result, error) {
	dynamic := core.DefaultConfig()
	systems := []struct {
		name    string
		rival   Rival
		cc, tlb core.Config // the TLB scenario's controller is tlb
	}{
		{"baseline", RivalNone, offConfig(), offConfig()},
		{"cosched", RivalCoSched, offConfig(), offConfig()},
		{"fixed-usliced", RivalFixed, offConfig(), offConfig()},
		{"vturbo", RivalVTurbo, offConfig(), offConfig()},
		{"vtrs", RivalVTRS, offConfig(), offConfig()},
		{"usliced-static", RivalNone, core.StaticConfig(1), core.StaticConfig(3)},
		{"usliced-dynamic", RivalNone, dynamic, dynamic},
	}

	// Each system contributes three cells, lock (exim), TLB (dedup) and
	// mixed I/O (iPerf TCP), run as one grid; the baseline-normalized rows
	// are assembled afterwards.
	var setups []Setup
	for _, sys := range systems {
		lock, tlb := corunSetup("exim", sys.cc, dur), corunSetup("dedup", sys.tlb, dur)
		mixedIO := ioSetup("tcp", true, sys.cc, dur)
		lock.Rival, tlb.Rival, mixedIO.Rival = sys.rival, sys.rival, sys.rival
		if sys.rival == RivalFixed {
			// Global short slicing applies to the co-runs; the I/O cell
			// keeps the default slice.
			cfg := rivals.ShortSliceConfig(100 * simtime.Microsecond)
			lock.HVConfig, tlb.HVConfig = &cfg, &cfg
		}
		setups = append(setups, lock, tlb, mixedIO)
	}
	results, err := RunAll(setups)
	if err != nil {
		return nil, err
	}

	out := &Table1Result{}
	var baseLock, baseTLB, baseCo, baseIO float64
	for i, sys := range systems {
		lock, tlb, mixedIO := results[3*i], results[3*i+1], results[3*i+2]
		lockUnits := float64(lock.VM("exim").Units)
		tlbUnits := float64(tlb.VM("dedup").Units)
		coUnits := float64(lock.VM("swaptions").Units)
		ioMbps := iperf(mixedIO).Mbps
		if sys.name == "baseline" {
			baseLock, baseTLB, baseCo, baseIO = lockUnits, tlbUnits, coUnits, ioMbps
		}
		out.Rows = append(out.Rows, Table1Row{
			System:       sys.name,
			LockGain:     lockUnits / baseLock,
			TLBGain:      tlbUnits / baseTLB,
			MixedIOGain:  ioMbps / baseIO,
			CoRunnerCost: baseCo / coUnits,
		})
	}
	return out, nil
}

// Render implements report.Renderer.
func (r *Table1Result) Render(w io.Writer) {
	t := report.Table{
		Title: "Table 1 (quantified): prior approaches vs flexible micro-sliced cores",
		Columns: []string{"system", "lock gain (exim)", "tlb gain (dedup)",
			"mixed-I/O gain (tcp)", "co-runner cost"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.System, row.LockGain, row.TLBGain, row.MixedIOGain, row.CoRunnerCost)
	}
	t.Notes = append(t.Notes,
		"gains are throughput vs baseline (>1 better); co-runner cost is swaptions normalized time in the lock scenario (>1 worse)")
	t.Notes = append(t.Notes,
		"expected shape per the paper: vturbo helps only I/O; vtrs helps broadly but coarsely; fixed-usliced helps all three but taxes the co-runner; usliced matches/beats all with the lowest tax")
	t.Render(w)
}
