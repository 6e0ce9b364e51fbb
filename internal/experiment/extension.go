package experiment

import (
	"fmt"
	"io"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/report"
	"github.com/microslicedcore/microsliced/internal/rng"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// ExtensionResult measures the paper's §4.4 future-work extension:
// accelerating *user-level* critical sections registered with the
// hypervisor through a per-process region table.
type ExtensionResult struct {
	BaselineOps    uint64 // vanilla scheduler
	KernelOnlyOps  uint64 // micro-sliced cores, kernel whitelist only
	WithUserCSOps  uint64 // micro-sliced cores + registered user regions
	UserDetections uint64
	KernelOnlyGain float64
	WithUserCSGain float64
}

// runUserCSApp builds an application whose contention is entirely in
// user-space spinlocks (a latency-critical game-server shape), co-run with
// a hog VM, under the given controller configuration.
func runUserCSApp(cc core.Config, register bool, dur simtime.Duration) (uint64, *core.Controller, error) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "app", DefaultVCPUs, ksym.Generate(1), guest.DefaultParams())
	hog := guest.NewKernel(h, "hog", DefaultVCPUs, ksym.Generate(2), guest.DefaultParams())
	r := rng.New(99)

	var locks []*guest.SpinLock
	for i := 0; i < 3; i++ {
		locks = append(locks, k.UserLock(fmt.Sprintf("world-shard-%d", i), "User"))
	}
	for i := 0; i < DefaultVCPUs; i++ {
		i := i
		tr := r.Fork(uint64(i))
		k.NewThread(i, fmt.Sprintf("game-%d", i), guest.ProgramFunc(func(now simtime.Time) guest.Op {
			if tr.Bool(0.5) {
				return guest.Op{Kind: guest.OpCompute, Dur: simtime.Duration(tr.ExpDur(int64(12 * simtime.Microsecond)))}
			}
			return guest.Op{Kind: guest.OpLock, Lock: locks[i%len(locks)], Dur: simtime.Duration(tr.ExpDur(int64(2 * simtime.Microsecond)))}
		}))
		hr := r.Fork(1000 + uint64(i))
		hog.NewThread(i, "hog", guest.ProgramFunc(func(now simtime.Time) guest.Op {
			if hr.Bool(0.12) {
				return guest.Op{Kind: guest.OpSleep, Dur: 200 * simtime.Microsecond}
			}
			return guest.Op{Kind: guest.OpCompute, Dur: simtime.Duration(4+i%8) * simtime.Millisecond}
		}))
	}
	ctrl, err := core.Attach(h, cc)
	if err != nil {
		return 0, nil, err
	}
	if register {
		ctrl.RegisterUserRegions(k.Dom.ID, k.UserRegions())
	}
	h.Start()
	ctrl.Start()
	k.StartAll()
	for i, vc := range hog.VCPUs {
		hvv := vc.HV()
		clock.At(simtime.Time(1+7*i)*simtime.Millisecond, func() { h.Wake(hvv, false) })
	}
	clock.RunUntil(dur)
	var ops uint64
	for _, th := range k.Threads() {
		ops += th.OpsDone
	}
	return ops, ctrl, nil
}

// ExtensionUserCS compares the baseline, the kernel-only mechanism, and
// the mechanism with the user-region table enabled, on a user-lock-bound
// application.
func ExtensionUserCS(dur simtime.Duration) (*ExtensionResult, error) {
	offCfg := core.DefaultConfig()
	offCfg.Mode = core.ModeOff
	uCfg := core.StaticConfig(1)
	uCfg.UserCS = true
	var base, kern, user uint64
	var ctrl *core.Controller
	err := parallelDo(3, func(i int) error {
		switch i {
		case 0:
			ops, _, err := runUserCSApp(offCfg, false, dur)
			base = ops
			return err
		case 1:
			ops, _, err := runUserCSApp(core.StaticConfig(1), false, dur)
			kern = ops
			return err
		default:
			ops, c, err := runUserCSApp(uCfg, true, dur)
			user, ctrl = ops, c
			return err
		}
	})
	if err != nil {
		return nil, err
	}
	var userHits uint64
	for name, n := range ctrl.SymbolHits() {
		if len(name) > 5 && name[:5] == "user:" {
			userHits += n
		}
	}
	return &ExtensionResult{
		BaselineOps:    base,
		KernelOnlyOps:  kern,
		WithUserCSOps:  user,
		UserDetections: userHits,
		KernelOnlyGain: float64(kern) / float64(base),
		WithUserCSGain: float64(user) / float64(base),
	}, nil
}

// Render implements report.Renderer.
func (r *ExtensionResult) Render(w io.Writer) {
	t := report.Table{
		Title:   "Extension (paper 4.4): accelerating registered user-level critical sections",
		Columns: []string{"configuration", "app ops", "gain"},
	}
	t.AddRow("baseline", r.BaselineOps, 1.0)
	t.AddRow("usliced, kernel whitelist only", r.KernelOnlyOps, r.KernelOnlyGain)
	t.AddRow("usliced + registered user regions", r.WithUserCSOps, r.WithUserCSGain)
	t.Notes = append(t.Notes,
		fmt.Sprintf("user-region detections: %d", r.UserDetections))
	t.Notes = append(t.Notes,
		"the kernel whitelist cannot see user-space lock holders; registering the app's critical regions (the paper's proposed interface) recovers them")
	t.Render(w)
}
