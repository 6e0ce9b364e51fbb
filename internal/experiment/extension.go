package experiment

import (
	"fmt"
	"io"
	"strings"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/report"
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

// ExtensionUserCS compares the baseline, the kernel-only mechanism, and
// the mechanism with the user-region table enabled, on a user-lock-bound
// game server co-run with a hog VM that starts 7 ms later.
func ExtensionUserCS(dur simtime.Duration) (*ExtensionResult, error) {
	kernelOnly := core.StaticConfig(1)
	withUser := kernelOnly
	withUser.UserCS = true
	var setups []Setup
	for _, cc := range []core.Config{offConfig(), kernelOnly, withUser} {
		setups = append(setups, Setup{
			VMs: []VMSpec{
				{Name: "app", App: "usergame", Seed: 99},
				{Name: "hog", App: "usergame-hog", Seed: 99},
			},
			Core:         cc,
			Duration:     dur,
			StaggerStart: true,
		})
	}
	results, err := RunAll(setups)
	if err != nil {
		return nil, err
	}
	base, kern, user := results[0].VM("app").Units, results[1].VM("app").Units, results[2].VM("app").Units
	var userHits uint64
	for name, n := range results[2].SymbolHits {
		if strings.HasPrefix(name, "user:") {
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
