package core

import (
	"strings"
	"testing"

	"github.com/microslicedcore/microsliced/internal/guest"
	"github.com/microslicedcore/microsliced/internal/hv"
	"github.com/microslicedcore/microsliced/internal/ksym"
	"github.com/microslicedcore/microsliced/internal/simtime"
)

// userLockProg alternates user compute with a user-level critical section.
type userLockProg struct {
	l     *guest.SpinLock
	burst simtime.Duration
	i     int
}

func (p *userLockProg) Next(now simtime.Time, op *guest.Op) {
	p.i++
	if p.i%2 == 1 {
		*op = guest.Op{Kind: guest.OpCompute, Dur: p.burst}
		return
	}
	*op = guest.Op{Kind: guest.OpLock, Lock: p.l, Dur: 2 * simtime.Microsecond}
}

// userCSScenario: an application with its own spinlocks (a game server, a
// userspace allocator, ...) co-running with a hog VM.
func userCSScenario() (*simtime.Clock, *hv.Hypervisor, *guest.Kernel) {
	clock := simtime.NewClock()
	cfg := hv.DefaultConfig()
	cfg.PCPUs = 12
	h := hv.New(clock, cfg)
	k := guest.NewKernel(h, "app", 12, ksym.Generate(1), guest.DefaultParams())
	hog := guest.NewKernel(h, "hog", 12, ksym.Generate(2), guest.DefaultParams())
	var locks []*guest.SpinLock
	for i := 0; i < 3; i++ {
		locks = append(locks, k.UserLock("ulock"+string(rune('0'+i)), "User"))
	}
	for i := 0; i < 12; i++ {
		k.NewThread(i, "worker", &userLockProg{
			l:     locks[i%len(locks)],
			burst: simtime.Duration(10+i) * simtime.Microsecond,
		})
		hog.NewThread(i, "hog", &hogProg{burst: simtime.Duration(4+i) * simtime.Millisecond})
	}
	for i, vc := range hog.VCPUs {
		hvv := vc.HV()
		clock.At(simtime.Time(1+7*i)*simtime.Millisecond, func() { h.Wake(hvv, false) })
	}
	return clock, h, k
}

func runUserCS(t *testing.T, enable bool) (uint64, *Controller) {
	t.Helper()
	clock, h, k := userCSScenario()
	cfg := StaticConfig(1)
	cfg.UserCS = enable
	c, err := Attach(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterUserRegions(k.Dom.ID, k.UserRegions())
	h.Start()
	c.Start()
	k.StartAll()
	clock.RunUntil(2 * simtime.Second)
	var ops uint64
	for _, th := range k.Threads() {
		ops += th.OpsDone
	}
	return ops, c
}

func TestUserRegionsDeclared(t *testing.T) {
	_, _, k := userCSScenario()
	regions := k.UserRegions()
	if len(regions) != 3 {
		t.Fatalf("regions=%d", len(regions))
	}
	for _, r := range regions {
		if r.Lo < guest.UserCSBase || r.Hi <= r.Lo {
			t.Fatalf("bad region %+v", r)
		}
		if ksym.IsKernelAddr(r.Lo) {
			t.Fatalf("user region in kernel space: %+v", r)
		}
	}
	// Regions must not contain the spin-wait sentinel.
	if ksym.UserRegionIndex(regions, guest.UserSpinRIP) >= 0 {
		t.Fatal("spin RIP inside a registered region — waiters would be migrated")
	}
}

func TestUserCSExtensionAccelerates(t *testing.T) {
	offOps, offCtrl := runUserCS(t, false)
	onOps, onCtrl := runUserCS(t, true)

	// Without the extension the detector cannot classify user-space RIPs:
	// no user-region hits, and essentially no rescues of the user locks.
	for name := range offCtrl.SymbolHits() {
		if strings.HasPrefix(name, "user:") {
			t.Fatalf("user hit %q recorded without the extension", name)
		}
	}
	userHits := uint64(0)
	for name, n := range onCtrl.SymbolHits() {
		if strings.HasPrefix(name, "user:") {
			userHits += n
		}
	}
	if userHits == 0 {
		t.Fatal("extension enabled but no user-region detections")
	}
	if onCtrl.Counters.Value("migrate.ok") <= offCtrl.Counters.Value("migrate.ok") {
		t.Fatalf("no extra migrations: off=%d on=%d",
			offCtrl.Counters.Value("migrate.ok"), onCtrl.Counters.Value("migrate.ok"))
	}
	if onOps <= offOps {
		t.Fatalf("user-CS acceleration did not help: off=%d on=%d", offOps, onOps)
	}
}

func TestRegisterIgnoredWhenDisabled(t *testing.T) {
	clock := simtime.NewClock()
	h := hv.New(clock, hv.DefaultConfig())
	guest.NewKernel(h, "vm", 1, ksym.Generate(1), guest.DefaultParams())
	cfg := StaticConfig(1) // UserCS off
	c, err := Attach(h, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.RegisterUserRegions(0, []ksym.UserRegion{{Name: "x", Lo: 1, Hi: 2}})
	if len(c.doms[0].userRegions) != 0 {
		t.Fatal("regions registered while the extension is disabled")
	}
}
