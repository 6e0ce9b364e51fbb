package experiment

import (
	"testing"

	"github.com/microslicedcore/microsliced/internal/core"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// TestMicroFullCounterLazy is the regression for the lazily interned
// migrate.micro_full counter. A run whose micro pool is used but never
// full must not grow the key, which would change every encoded Result; a
// run that fills the pool must count exactly what the string-keyed counter
// counted. The values are pinned from the string-keyed implementation.
func TestMicroFullCounterLazy(t *testing.T) {
	for _, tc := range []struct {
		app         string
		cfg         core.Config
		micro, full uint64
	}{
		{"memclone", core.DefaultConfig(), 2708, 0},
		{"gmake", core.DefaultConfig(), 204, 7},
		{"exim", core.StaticConfig(1), 1861, 1468},
	} {
		res, err := Run(corunSetup(tc.app, tc.cfg, 500*simtime.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		full, present := res.HV["migrate.micro_full"]
		if res.HV["migrate.micro"] != tc.micro || full != tc.full || present != (tc.full > 0) {
			t.Errorf("%s %v: migrate.micro=%d migrate.micro_full=%d (key present %v), want %d and %d",
				tc.app, tc.cfg.Mode, res.HV["migrate.micro"], full, present, tc.micro, tc.full)
		}
	}
}
