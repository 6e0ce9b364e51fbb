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

// runRivalCorun runs a co-run scenario under a rival system.
func runRivalCorun(app string, r Rival, dur simtime.Duration) (*Result, error) {
	s := corunSetup(app, offConfig(), dur)
	s.Rival = r
	if r == RivalFixed {
		cfg := rivals.ShortSliceConfig(100 * simtime.Microsecond)
		s.HVConfig = &cfg
	}
	return Run(s)
}

// Table1 measures baseline, the three implemented rivals, and the paper's
// mechanism (static best and dynamic) on the lock, TLB and mixed-I/O
// symptom scenarios.
func Table1(dur simtime.Duration) (*Table1Result, error) {
	type sysCfg struct {
		name  string
		rival Rival
		cc    *core.Config
	}
	static := core.StaticConfig(1)
	staticTLB := core.StaticConfig(3)
	dynamic := core.DefaultConfig()
	systems := []sysCfg{
		{"baseline", RivalNone, nil},
		{"cosched", RivalCoSched, nil},
		{"fixed-usliced", RivalFixed, nil},
		{"vturbo", RivalVTurbo, nil},
		{"vtrs", RivalVTRS, nil},
		{"usliced-static", RivalNone, &static},
		{"usliced-dynamic", RivalNone, &dynamic},
	}

	// Each system contributes three independent measurements (lock, TLB,
	// mixed I/O). Run the whole (system x scenario) grid on the worker pool
	// and assemble the baseline-normalized rows serially afterwards.
	runOne := func(sys sysCfg, app string, tlb bool) (*Result, error) {
		if sys.rival != RivalNone {
			return runRivalCorun(app, sys.rival, dur)
		}
		cc := offConfig()
		if sys.cc != nil {
			cc = *sys.cc
			if tlb && sys.name == "usliced-static" {
				cc = staticTLB
			}
		}
		return Run(corunSetup(app, cc, dur))
	}
	type t1cell struct {
		lock *Result
		tlb  *Result
		io   *IOMeasure
	}
	cells := make([]t1cell, len(systems))
	err := parallelDo(3*len(systems), func(idx int) error {
		sys := systems[idx/3]
		cell := &cells[idx/3]
		switch idx % 3 {
		case 0:
			r, err := runOne(sys, "exim", false)
			cell.lock = r
			return err
		case 1:
			r, err := runOne(sys, "dedup", true)
			cell.tlb = r
			return err
		default:
			var ioCC core.Config
			switch {
			case sys.rival != RivalNone:
				ioCC = offConfig() // rival installed by RunIORival itself
			case sys.cc != nil:
				ioCC = *sys.cc
			default:
				ioCC = offConfig()
			}
			m, err := RunIORival("tcp", true, ioCC, sys.rival, dur)
			cell.io = m
			return err
		}
	})
	if err != nil {
		return nil, err
	}

	out := &Table1Result{}
	var baseLock, baseTLB, baseCo, baseIO float64
	for i, sys := range systems {
		cell := cells[i]
		lockUnits := float64(cell.lock.VM("exim").Units)
		tlbUnits := float64(cell.tlb.VM("dedup").Units)
		coUnits := float64(cell.lock.VM("swaptions").Units)
		if sys.name == "baseline" {
			baseLock, baseTLB, baseCo, baseIO = lockUnits, tlbUnits, coUnits, cell.io.Mbps
		}
		out.Rows = append(out.Rows, Table1Row{
			System:       sys.name,
			LockGain:     lockUnits / baseLock,
			TLBGain:      tlbUnits / baseTLB,
			MixedIOGain:  cell.io.Mbps / baseIO,
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
