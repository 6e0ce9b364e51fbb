package main

import (
	"fmt"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/experiment"
	"github.com/microslicedcore/microsliced/internal/fault"
	"github.com/microslicedcore/microsliced/internal/obs"
	"github.com/microslicedcore/microsliced/internal/recovery"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// A workload is a closed loop over a fixed grid of scenarios: one scenario
// is in flight at a time, and a round runs every cell of the grid once with
// seeds derived from the benchmark seed and the round number.
type workload struct {
	name string
	why  string
	// simDur is the simulated length of one scenario.
	simDur simtime.Duration
	// minRounds is the number of rounds every run completes, however long it
	// takes; the simulated counts and sim_digest are taken over exactly
	// these rounds, so they repeat exactly for a seed.
	minRounds int
	grid      func(s roundSeeds, dur simtime.Duration) []scenario
}

// scenario is one op: a cell of the grid and its shape expectation.
type scenario struct {
	cell  string
	setup experiment.Setup
	// shape is the SLO verdict the cell must reach (serve-sweep only).
	shape shapeWant
}

type shapeWant uint8

const (
	shapeAny shapeWant = iota
	shapeMeet
	shapeMiss
)

var workloads = []workload{
	{
		name:      "corun-credit",
		why:       "six paper co-runs under the plain credit scheduler: simtime and hv churn, core detached",
		simDur:    simtime.Second,
		minRounds: 15,
		grid:      func(s roundSeeds, d simtime.Duration) []scenario { return corunGrid(offConfig(), s, d) },
	},
	{
		name:      "corun-usliced",
		why:       "the same co-runs under Algorithm 1: adds critical-vCPU classification and micro-pool sizing",
		simDur:    simtime.Second,
		minRounds: 6,
		grid:      func(s roundSeeds, d simtime.Duration) []scenario { return corunGrid(core.DefaultConfig(), s, d) },
	},
	{
		name:      "serve-sweep",
		why:       "Figure-9 serving grid on 3 pinned pCPUs: guest softirq, NIC ring and rng paths, many small setups",
		simDur:    5 * simtime.Second,
		minRounds: 4,
		grid:      serveGrid,
	},
	{
		name:      "faults-observed",
		why:       "harsh faults with supervisor, auditor and observer on: the recording side of obs and metrics",
		simDur:    simtime.Second,
		minRounds: 30,
		grid:      faultGrid,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// roundSeeds are the seeds of one round: the two VMs' workload seeds, the
// serving flow's seed and the fault plan's seed.
type roundSeeds struct {
	vmA, vmB, serve, fault uint64
}

// seedsFor derives round r's seeds from the benchmark seed. Round 0 keeps
// the experiment harness's fixed seeds, so its cells are the scenarios of
// BenchmarkSimulator_EventThroughput, paperbench -serve and the recovery
// sweep's first seed.
func seedsFor(seed uint64, round int) roundSeeds {
	if round == 0 {
		return roundSeeds{vmA: 11, vmB: 22, serve: 77, fault: 1}
	}
	x := seed*0x9e3779b97f4a7c15 ^ uint64(round)<<32
	return roundSeeds{vmA: splitmix(&x), vmB: splitmix(&x), serve: splitmix(&x), fault: splitmix(&x)}
}

// splitmix is the SplitMix64 step: it advances *x and returns a well-mixed
// 64-bit value.
func splitmix(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func offConfig() core.Config {
	c := core.DefaultConfig()
	c.Mode = core.ModeOff
	return c
}

// corunApps are the paper's six execution-time and throughput workloads;
// each is co-run with swaptions at 2:1 consolidation on 12 pCPUs.
var corunApps = []string{"gmake", "exim", "dedup", "psearchy", "memclone", "vips"}

func corunGrid(cc core.Config, s roundSeeds, dur simtime.Duration) []scenario {
	out := make([]scenario, 0, len(corunApps))
	for _, app := range corunApps {
		out = append(out, scenario{cell: app, setup: experiment.Setup{
			VMs: []experiment.VMSpec{
				{Name: app, App: app, Seed: s.vmA},
				{Name: "swaptions", App: "swaptions", Seed: s.vmB},
			},
			Core:         cc,
			Duration:     dur,
			StaggerStart: true,
		}})
	}
	return out
}

// The serving grid mirrors experiment.ServeSweep: mechanism × offered rate
// × co-runner, on a 3-pCPU host where the serving vCPU (mixed with
// lookbusy) and the co-runner share pinned pCPU 0.
var (
	serveConfigs = []struct {
		name  string
		cc    core.Config
		rival experiment.Rival
	}{
		{"baseline", offConfig(), experiment.RivalNone},
		{"static-1", core.StaticConfig(1), experiment.RivalNone},
		{"static-2", core.StaticConfig(2), experiment.RivalNone},
		{"dynamic", core.DefaultConfig(), experiment.RivalNone},
		{"vturbo", offConfig(), experiment.RivalVTurbo},
	}
	serveRates  = []int{1000, 3000, 9000, 18000}
	serveCoruns = []string{"lookbusy", "swaptions"}
)

// serveShape is the Figure-9 shape every round must keep: at 3k and 9k
// req/s baseline credit misses the SLO and every other mechanism meets it.
// static-2 at 9k is left out: with two of the three pCPUs in the micro
// pool, about one seed in twenty takes it to 2-3.5% violations, past the 1%
// line, while every other cell keeps a wide margin (baseline near 50%, the
// rest at most 0.3%).
func serveShape(config string, rate int) shapeWant {
	if (rate != 3000 && rate != 9000) || (config == "static-2" && rate == 9000) {
		return shapeAny
	}
	if config == "baseline" {
		return shapeMiss
	}
	return shapeMeet
}

func serveGrid(s roundSeeds, dur simtime.Duration) []scenario {
	out := make([]scenario, 0, len(serveCoruns)*len(serveConfigs)*len(serveRates))
	for _, corun := range serveCoruns {
		for _, c := range serveConfigs {
			for _, rate := range serveRates {
				out = append(out, scenario{
					cell:  fmt.Sprintf("%s/%s/%d", c.name, corun, rate),
					shape: serveShape(c.name, rate),
					setup: experiment.Setup{
						PCPUs: 3,
						VMs: []experiment.VMSpec{
							{
								Name: "serve", App: "lookbusy", VCPUs: 1, Seed: s.vmA,
								Pins:  []int{0},
								Serve: &experiment.ServeSpec{RatePerSec: rate, RingCap: 48, Seed: s.serve},
							},
							{Name: corun, App: corun, VCPUs: 1, Seed: s.vmB, Pins: []int{0}},
						},
						Core:     c.cc,
						Rival:    c.rival,
						Duration: dur,
					},
				})
			}
		}
	}
	return out
}

// faultClasses are experiment.RecoverySweep's three harsh-fault classes.
var faultClasses = []struct {
	name string
	cfg  fault.Config
}{
	{"permanent-loss", fault.Config{OfflinePCPUs: 1, PermanentOfflinePCPUs: 2}},
	{"ipi-storm", fault.Config{
		Storms: 2, IPIDropProb: 0.2, LoseIPIs: true,
		TickJitter: 500 * simtime.Microsecond,
	}},
	{"loss+storm", fault.Config{
		PermanentOfflinePCPUs: 2, Storms: 2,
		IPIDropProb: 0.15, LoseIPIs: true,
		LockStallProb: 0.05, LockStallFactor: 4,
	}},
}

// faultGrid builds the recovery sweep's dedup+swaptions co-run (4 vCPUs
// each, static-2) under each harsh class, with the supervisor, auditor and
// observer on. Every time in the plan scales with dur: chaos quiesces at
// dur/5 and a starving vCPU is flagged dur/100 after that, which is the
// sweep's 10 ms at one simulated second. Like the sweep, a permanent-loss
// plan pins one swaptions vCPU to the pCPU the plan kills, planting a
// wedge the supervisor must repair after quiesce.
func faultGrid(s roundSeeds, dur simtime.Duration) []scenario {
	quiesce := dur / 5
	rcfg := &recovery.Config{Interval: 2 * simtime.Millisecond, StarveBound: quiesce + dur/100}
	out := make([]scenario, 0, len(faultClasses))
	for _, fc := range faultClasses {
		cfg := fc.cfg
		cfg.Seed = s.fault
		cfg.QuiesceAt = quiesce
		setup := experiment.Setup{
			VMs: []experiment.VMSpec{
				{Name: "dedup", App: "dedup", VCPUs: 4, Seed: s.vmA},
				{Name: "swaptions", App: "swaptions", VCPUs: 4, Seed: s.vmB},
			},
			Core:         core.StaticConfig(2),
			Duration:     dur,
			StaggerStart: true,
			Faults:       &cfg,
			Recovery:     rcfg,
			Audit:        true,
			Obs:          &obs.Config{},
		}
		if cfg.PermanentOfflinePCPUs > 0 {
			// An invalid plan is left for experiment.Run to reject, so it
			// is counted as a failed op.
			if plan, err := fault.New(cfg, experiment.DefaultPCPUs, dur); err == nil {
				for _, ev := range plan.Hotplug {
					if ev.Permanent {
						setup.VMs[1].Pins = []int{ev.PCPU}
						break
					}
				}
			}
		}
		out = append(out, scenario{cell: fc.name, setup: setup})
	}
	return out
}
